"""Residue number systems over high-dimensional phasor vectors.

Integers (and rationals, and hexagonal plane coordinates) are encoded
as products of random phasor vectors whose phases live on roots of
unity. Componentwise operations implement carry-free addition and
multiplication, and a resonator network factorizes composed vectors
back into per-modulus parts for efficient decoding. Applications
included here: sub-integer decoding, a subset-sum solver, and visual
scene disentangling.
"""

__version__ = "0.1.0"

from .phasor import (
    ModulusBase,
    NoiseModel,
    PhasorVector,
    add_phase_noise,
    conjugate,
    encode_integer,
    encode_rational,
    hadamard,
    identity_vector,
    phase_normalize,
    sample_base,
    similarity,
)
from .residue import (
    ResidueSystem,
    add,
    anti_base,
    crt_reconstruct,
    f_op,
    landau_g,
    make_residue_system,
    multiply,
    multiply_by_constant_inverse,
    subtract,
)
from .kernels import analytic_kernel, empirical_kernel, product_kernel, sinc_comb
from .resonator import (
    CapacityResult,
    Codebook,
    ResonatorConfig,
    ResonatorState,
    bits_per_vector,
    build_residue_codebooks,
    capacity_experiment,
    codebook_decode,
    decode_accuracy,
    decode_residue_number,
    resonator_factorize,
    resonator_step,
    sub_integer_decode,
)
from .hexgrid import (
    HexSystem,
    PSI,
    code_entropy,
    encode_cartesian,
    hex_project,
    hex_state_count,
    sample_hex_base,
    square_state_count,
)
from .subsetsum import (
    SubsetSumInstance,
    build_factors,
    exact_baseline,
    generate_instance,
    make_subsetsum_system,
    solve,
)
from .scene import FeatureMaps, SceneCodec, SceneVector, load_feature_maps, save_feature_maps
