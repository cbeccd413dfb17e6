"""Exact p-adic wavelet frames: affine-group orbits, stabilizers, and
tight-frame verification over Q(zeta_p)."""

from .padic import CosetRepresentative, PadicScalar, parse_rational
from .cyclotomic import CycloNumber, root_of_unity
from .wavelets import (
    EXACT,
    FLOAT,
    SampledFunction,
    TestFunction,
    WaveletIndex,
    inner_product_oracle,
    inner_product_symbolic,
    norm_sq,
    sample,
    wavelet_eval,
    wavelet_index,
)
from .affine import (
    AffineElement,
    GenericityVerdict,
    PhasedWavelet,
    StabilizerSpec,
    act_on_function,
    act_on_wavelet,
    ball_stabilizer_membership,
    compose,
    genericity_check,
    in_stabilizer,
    inverse,
    power,
    stabilizer_spec,
    wavelet_stabilizer_membership,
)
from .frames import (
    FrameReport,
    OrbitIndex,
    frame_bound,
    orbit_element,
    orbit_index,
    orbit_index_of,
    orbit_members,
    phase_fix_multiplicity,
    relevant_orbit_indices,
    reparametrize_wavelet_frame,
    run_frame_check,
    verify_tight_frame,
)
from .mra import scaling_relation_check, scaling_shift_gram, solve_in_span, wavelet_space_gram

__all__ = [name for name in dir() if not name.startswith("_")]
