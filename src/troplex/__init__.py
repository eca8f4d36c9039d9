"""troplex: exact twisted Alexander invariants and their tropicalizations.

From a finite group presentation and a matrix representation over Z, Q,
or a prime field, compute Fox-calculus Alexander matrices, homology jump
ideals and twisted Alexander polynomials, tropicalize them over valued
fields or over the integers, and assemble the resulting character-sphere
bound for the Sigma-invariant, all in exact arithmetic.
"""

__version__ = "0.1.0"

from .bnsreport import (
    BoundEntry,
    BoundReport,
    ComparisonResult,
    SigmaFixture,
    assemble_bound,
    brown_one_relator,
    compare_fixture,
    get_fixture,
)
from .fpgroup import (
    AbelianEpi,
    Presentation,
    Representation,
    alexander_matrices,
    build_orbifold,
    build_product,
    build_weighted_raag,
    parse_word,
    regular_representation,
    verify_representation,
    word_to_str,
)
from .jobspec import JobError, JobSpec, load_job
from .jumploci import (
    AlexVerdict,
    IdealGens,
    KahlerVerdict,
    NovikovVerdict,
    jump_ideal,
    kahler_obstruction,
    novikov_admissible,
    twisted_alexander,
)
from .laurent import LaurentPoly, canonical_associate, laurent_gcd, render, squarefree_part
from .rings import GF, QQ, TRIVIAL, ZZ, Valuation, padic
from .sphere import SphereArcSet, union_all
from .tropical import (
    Cell,
    TropicalComplex,
    cell_weight,
    union_over_valuations,
    sphere_projection,
    trop_contains,
    trop_hypersurface,
    trop_Z_contains,
    trop_Z_principal,
    tropicalize,
)

__all__ = [
    "AbelianEpi",
    "AlexVerdict",
    "BoundEntry",
    "BoundReport",
    "Cell",
    "ComparisonResult",
    "GF",
    "IdealGens",
    "JobError",
    "JobSpec",
    "KahlerVerdict",
    "LaurentPoly",
    "NovikovVerdict",
    "Presentation",
    "QQ",
    "Representation",
    "SigmaFixture",
    "SphereArcSet",
    "TRIVIAL",
    "TropicalComplex",
    "Valuation",
    "ZZ",
    "alexander_matrices",
    "assemble_bound",
    "brown_one_relator",
    "build_orbifold",
    "build_product",
    "build_weighted_raag",
    "canonical_associate",
    "cell_weight",
    "compare_fixture",
    "get_fixture",
    "jump_ideal",
    "kahler_obstruction",
    "laurent_gcd",
    "load_job",
    "novikov_admissible",
    "padic",
    "parse_word",
    "union_over_valuations",
    "regular_representation",
    "render",
    "sphere_projection",
    "squarefree_part",
    "trop_Z_contains",
    "trop_Z_principal",
    "trop_contains",
    "trop_hypersurface",
    "tropicalize",
    "twisted_alexander",
    "union_all",
    "verify_representation",
    "word_to_str",
]
