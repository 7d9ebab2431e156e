"""Signature-based creative-fatigue detection toolkit.

Detects change points in advertising performance series by comparing
truncated path signatures of adjacent sliding windows, classifies
per-segment trends, prices the opportunity cost of degraded
performance, and ships a seeded synthetic benchmark with scoring
utilities for method comparison.
"""

__version__ = "0.1.0"

from .detector import (
    ChangePoint,
    ChangePointReport,
    DetectorConfig,
    Segment,
    classify_trend,
    detect,
    distance_series,
    flag_change_points,
    ols_slope_test,
    segment_series,
)
from .errors import (
    ConfigurationError,
    CsvFormatError,
    DegenerateInputError,
    InsufficientDataError,
    InvalidInputError,
    PatternSpecError,
    SigFatigueError,
)
from .evaluation import (
    EvalMetrics,
    MatchPolicy,
    bootstrap_ci,
    evaluate_corpus,
    match_detections,
    score,
    sensitivity_report,
)
from .sigcore import batch_signature
from .synth import (
    PATTERN_KINDS,
    GeneratedSeries,
    GroundTruth,
    PatternSpec,
    generate,
    generate_batch,
)
from .wastage import WastageReport, compute_wastage, select_benchmark
from .windowing import (
    TimeSeries,
    pair_paths,
    read_series_csv,
    write_series_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
