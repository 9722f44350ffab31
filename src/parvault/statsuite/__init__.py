"""Statistical evaluation suite: randomness battery and pixel statistics.

nist exposes the sixteen-test battery (frequency through serial) used to
judge keystream and ciphertext quality; pixels holds byte-level tools, the
adjacent-pixel correlation estimator, the chi-square histogram test, and the
quantile mapping from cipher elements to evaluation bytes.
"""

from .nist import (  # noqa: F401
    TestResult,
    SequenceTooShortError,
    nist_battery,
    battery_passed,
    frequency_test,
    block_frequency_test,
    cumulative_sums_test,
    runs_test,
    longest_run_test,
    rank_test,
    dft_test,
    non_overlapping_test,
    overlapping_test,
    universal_test,
    approximate_entropy_test,
    random_excursions_test,
    random_excursions_variant_test,
    linear_complexity_test,
    serial_test,
)
from .pixels import (  # noqa: F401
    bits_from_bytes,
    element_bytes,
    element_bits,
    element_image,
    adjacent_correlation,
    histogram_chi_square,
)
from .images import (  # noqa: F401
    IMAGE_KINDS,
    PgmFormatError,
    synthetic_image,
    save_pgm,
    load_pgm,
)
from .report import (  # noqa: F401
    battery_report_text,
    histogram_csv,
    correlation_csv,
    bench_csv,
)
