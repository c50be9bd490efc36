"""jicert: finite-stage certification for inverse systems of permutation groups.

The package checks, stage by stage, the finite conditions under which an
inverse limit of finite permutation groups is just infinite (every proper
quotient finite), hereditarily so, or provably not virtually pronilpotent.
Prefixes of such systems are read from a JSON format, checked, and the
verdicts emitted as deterministic reports with machine-checkable witnesses.
"""

from .certifier import (
    BOUNDED,
    CHECK_ORDER,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CertifyOptions,
    CheckResult,
    ClassCountReport,
    EpVerdict,
    StageVerdict,
    SystemVerdict,
    certify_system,
    check_centralize_or_contain,
    check_commuting_conjugates_stage,
    check_critical_stage,
    check_ep_proper,
    check_strengthened_stage,
    check_wilson_stage,
    derive_critical_marks,
    revalidate_witness,
)
from .classdata import (
    SchurClosureVerdict,
    SchurTable,
    SimpleClass,
    class_from_names,
    count_class_factors,
    schur_closure_check,
)
from .errors import (
    DegreeMismatchError,
    DenseBoundExceededError,
    DerivationError,
    HomomorphismError,
    InputFormatError,
    JicertError,
    KernelBugError,
    MembershipError,
    NotNormalError,
    UnknownGroupError,
)
from .group import (
    PermGroup,
    center,
    centralizer,
    commutator_subgroup,
    derived_subgroup,
    direct_product,
    e_p_subgroup,
    intersection,
    is_nilpotent,
    join,
    normal_closure,
    product_order,
    subgroup_generated,
    wreath_product,
)
from .hom import GroupHom
from .lattice import (
    CriticalPair,
    central_decomposition,
    centdec_witness,
    chief_factor_pairs,
    chief_series,
    composition_factors,
    critical_pairs,
    find_critical_refinement,
    is_critical_pair,
    maximal_normal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
)
from .library import (
    alternating,
    central_product,
    cyclic,
    dihedral,
    named_group,
    quaternion8,
    sl2,
    symmetric,
)
from .perm import Permutation, comm
from .prefixes import (
    StageRecord,
    SystemPrefix,
    build_wreath_tower,
    parse_system,
    serialize_system,
)
from .report import TOOL_VERSION, emit_report, input_digest, make_report, parse_report
from .simples import (
    SimpleTypeId,
    identify_simple_type,
    is_simple,
    simple_table_rows,
)

__version__ = TOOL_VERSION
