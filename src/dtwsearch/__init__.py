"""Exact variable-length subsequence similarity search under DTW."""

from .core import (
    STAGE_FIELDS,
    TIE_TOLERANCE,
    BandInfeasible,
    DimensionMismatch,
    DtwSearchError,
    EmptyFile,
    IndexOutOfRange,
    InstanceTooLarge,
    IntervalOutOfBounds,
    InvalidGamma,
    InvalidSpec,
    KernelCompileError,
    NonFiniteValue,
    ParseError,
    RaggedRows,
    SearchResult,
    SearchStats,
    SeriesTooShort,
    TimeSeries,
    WarpingPath,
    WindowOrderViolated,
    WindowPair,
    WindowTooLarge,
    validate_query,
)
from .metrics import DistanceMatrix, distance_matrix, z_normalize
from .bounds import CoarseBounds, min_pool, upper_bound_matrix, upper_bound_path
from .dtw import (
    band_column_ranges,
    default_band_radius,
    dtw_banded,
    dtw_batch,
    dtw_matrix_full,
    dtw_path_oracle,
    dtw_windowed,
)
from .search import (
    Candidates,
    RankedMatch,
    SearchOptions,
    TopKResult,
    brute_force_search,
    find_candidates,
    infer_most_similar,
    result_to_json_dict,
    top_k_search,
    topk_to_json_list,
)
from .simgen import GroundTruth, SimulationSpec, add_noise, generate_pair
from .evaluation import ConfusionCounts, LeadDifferenceCell, lead_difference, score_intervals

__version__ = "0.1.0"
