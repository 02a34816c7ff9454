"""Statistical forensics for polling station data.

Detects heaping of turnout and leader-result percentages at integer
values by comparing each dataset against Monte Carlo draws from
per-station null models. Includes data ingestion for several national
formats, histogram and spectral diagnostics, per-region attribution,
2-d fingerprints, and a synthetic data generator with configurable
fraud injection for power studies.
"""

from .anomaly import (
    AnomalyReport,
    StatisticDef,
    WindowSpec,
    is_in_window,
    percentile_band,
    run_null,
    run_nulls,
    window_sweep,
)
from .histograms import (
    Envelope,
    PeakShape,
    WeightedHistogram,
    average_histograms,
    build_histogram,
    envelope_from_matrix,
    histogram_envelope,
    mc_histogram_matrices,
    mc_histograms,
    peak_shape,
)
from .ingest import (
    PROFILES,
    Discrepancy,
    IngestReport,
    SchemaError,
    load_dataset,
    verify_subtotals,
    write_canonical_tsv,
)
from .model import (
    ElectionDataset,
    FilterPolicy,
    StationMetrics,
    StationRecord,
    apply_filters,
    as_fraction,
    compute_metrics,
)
from .regions import (
    Fingerprint2D,
    RegionPeakRow,
    RegionPeakTable,
    exclude_regions,
    fingerprint,
    region_peaks,
    restrict_regions,
)
from .sampling import DatasetSampler, NullModel, make_sampler
from .spectral import (
    AmplitudeSpectrum,
    HarmonicProfile,
    Spectrogram,
    amplitude_spectrum,
    harmonic_profile,
    spectrogram,
)
from .synth import (
    BetaProb,
    FixedProb,
    FixedSize,
    FraudSpec,
    GeneratorConfig,
    InjectionLog,
    InjectionRecord,
    LogNormalSize,
    SyntheticElection,
    default_target_palette,
    generate,
    inject_fraud,
)

__version__ = "1.0.0"

__all__ = [
    "AmplitudeSpectrum",
    "AnomalyReport",
    "BetaProb",
    "DatasetSampler",
    "Discrepancy",
    "ElectionDataset",
    "Envelope",
    "FilterPolicy",
    "Fingerprint2D",
    "FixedProb",
    "FixedSize",
    "FraudSpec",
    "GeneratorConfig",
    "HarmonicProfile",
    "IngestReport",
    "InjectionLog",
    "InjectionRecord",
    "LogNormalSize",
    "NullModel",
    "PROFILES",
    "PeakShape",
    "RegionPeakRow",
    "RegionPeakTable",
    "SchemaError",
    "Spectrogram",
    "StationMetrics",
    "StationRecord",
    "StatisticDef",
    "SyntheticElection",
    "WeightedHistogram",
    "WindowSpec",
    "amplitude_spectrum",
    "apply_filters",
    "as_fraction",
    "average_histograms",
    "build_histogram",
    "compute_metrics",
    "default_target_palette",
    "envelope_from_matrix",
    "exclude_regions",
    "fingerprint",
    "generate",
    "harmonic_profile",
    "histogram_envelope",
    "inject_fraud",
    "is_in_window",
    "load_dataset",
    "make_sampler",
    "mc_histograms",
    "mc_histogram_matrices",
    "peak_shape",
    "percentile_band",
    "region_peaks",
    "restrict_regions",
    "run_null",
    "run_nulls",
    "spectrogram",
    "verify_subtotals",
    "window_sweep",
    "write_canonical_tsv",
]
