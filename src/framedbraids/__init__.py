"""Exact computation with framed braids: words, normal forms, moves, and
closure invariants, plus the Hilden-group relation verifier."""

from .words import (
    BraidWord,
    Letter,
    Permutation,
    concat,
    exponent_sum,
    include_natural,
    invert,
    permutation_of,
    sigma,
    tau,
)
from .garside import GarsideNormalForm, are_equal, to_normal_form
from .framed import (
    FramedBraid,
    framed_equal,
    inverse,
    multiply,
    normalize,
    spell,
)
from .closure import LinkSignature, closure_signature, knot_framing, signatures_match
from .moves import (
    MoveDescriptor,
    apply_move,
    conjugate,
    over_inclusion,
    solve_framing_transfer,
    tau_conjugation_as_RL_sequence,
    under_inclusion,
)
from .plat import (
    PlatSignature,
    double_coset_move,
    framed_stabilization,
    plat_signature,
)
from .hilden import (
    GeneratorDictionary,
    RelationReport,
    framed_hilden_generator,
    hilden_generator,
    plat_trivializes,
    verify_relation_suite,
)
from .parser import WordParseError, format_word, parse

__all__ = [name for name in dir() if not name.startswith("_")]
