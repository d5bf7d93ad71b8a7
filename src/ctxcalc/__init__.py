"""ctxcalc: contexts as typed relations, their operator algebra, and a
demand-driven evaluator for intensional stream equations."""

from .errors import (
    ContextCalcError,
    DemandExhausted,
    DuplicateDimension,
    DuplicateName,
    EmptyChoice,
    ExprSyntaxError,
    IllFormedDomain,
    IllTypedPredicate,
    KindMismatch,
    NonSimpleOperand,
    NonSimpleResidue,
    TagOutsideDomain,
    TagTypeMismatch,
    UnbalancedParens,
    UnboundVariable,
    UnboundedBox,
    UnknownDimension,
    UnknownToken,
    UnorderedRangeDimension,
    UnresolvedReference,
)
from .model import (
    Context,
    ContextOrder,
    ContextSet,
    Dimension,
    DimensionRegistry,
    EnumValue,
    MicroContext,
    NULL_CONTEXT,
    TagKind,
    make_context,
)
from .ops import (
    choice,
    conjunction,
    difference,
    directed_range,
    disjunction,
    hiding,
    override,
    projection,
    substitution,
    undirected_range,
)
from .sets import (
    Box,
    box_contains,
    box_enumerate,
    box_make,
    join,
    lift_choice,
    lift_difference,
    lift_hiding,
    lift_override,
    lift_projection,
    lift_substitution,
    set_intersection,
    set_union,
)
from .lexer import Token, tokenize
from .parser import parse_expr, to_text
from .evaluator import Environment, evaluate
from .streams import (
    EquationSet,
    EvalContext,
    Warehouse,
    define_streams,
    eval_prefix,
    eval_stream,
    parse_stream_expr,
)

__version__ = "0.1.0"
