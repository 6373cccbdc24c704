"""Generator and verifier for OEIS A036991 (the Dyck numbers): level
and core structure, pattern algebra, and machine checks of the
structural identities against a brute-force oracle and OEIS b-files."""

from .conjectures import (
    check_catalan_rejection,
    check_conj16,
    check_conj18,
    check_prop12,
    run_all,
    size_identity_checks,
    verify_eq1,
    verify_eq2,
)
from .cores import (
    Core,
    Fragment,
    PatternLibrary,
    core,
    core_size,
    core_subsequence,
    core_top,
    decompose,
    evaluate,
    format_expr,
    fragment_image,
    rejected_terms,
    standard_library,
    subsegments,
)
from .dyck_core import (
    TermClass,
    classify,
    dyck_pred,
    dyck_succ,
    dynamics,
    is_dyck_number,
    succ_of_mersenne,
)
from .levels import (
    CentralTerms,
    Level,
    central_terms,
    level_index,
    level_scan,
    level_size,
    level_structural,
    mersenne,
    stream_terms,
)
from .oeis_ref import (
    BFile,
    a001405,
    a002054,
    catalan,
    central_family,
    compare,
    computed_prefix,
    fetch_bfile,
    parse_bfile,
)
from .patterns import (
    CopyRelation,
    Pattern,
    copy_at,
    copy_relation,
    join,
    lift_copy,
    make_pattern,
    offset_of,
    pattern_len,
    power,
)
from .report import Counterexample, VerificationOutcome

__version__ = "0.1.0"
