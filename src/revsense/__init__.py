"""revsense: how string-repetitiveness measures respond to reversal.

Library surface: texts over ordered integer alphabets, suffix/rotation
structures, BWT variants with run counts, four Lempel-Ziv parsings, the
lexicographic parse, substring complexity, right-extension counts, the
extremal string families, closed-form predictors, and a sweep/verify
harness.  `python -m revsense --help` is the command-line entry.
"""

from .bwt import TransformResult, bbwt, bwt, bwt_sentinel
from .families import (
    FAMILIES,
    FamilySpec,
    Prediction,
    T55,
    central_word,
    fibonacci_word,
    generate,
    predict_transform,
    predictions,
)
from .harness import (
    MEASURE_IDS,
    SensitivityReport,
    SweepRow,
    VerifyRow,
    evaluate,
    rows_to_csv,
    sensitivity_report,
    sweep,
    verify,
)
from .lexparse import lex_parse
from .lz import Parsing, lz_end_greedy, lz_end_optimal, lz_no_overlap, lz_parse
from .measures import right_extension_count, substring_complexity
from .suffixes import SuffixContext, build_suffix_context, cyclic_rotation_order
from .text import Text, lyndon_starts, reverse

__version__ = "0.1.0"
