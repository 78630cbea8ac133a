"""The folded fine-tuning / baseline loops against the parent's record."""

from __future__ import annotations

import numpy as np

from .golden_loops import GOLDEN_PATH, build_golden


def test_task_and_baseline_loops_match_the_parent_bit_for_bit():
    """History rows, test AUC / AP (both tasks, ``eie-gru`` and ``none``)
    and all ten baseline loss lists equal what commit 9bbcfa1 — two
    ``train()`` forks, six baseline loops — produced (link prediction's
    validation / test scores as re-recorded for keyed negatives)."""
    with np.load(GOLDEN_PATH) as recorded:
        golden = {key: recorded[key] for key in recorded.files}
    current = build_golden()
    assert sorted(current) == sorted(golden)
    for key, expected in golden.items():
        # assert_array_equal treats NaN == NaN (an undefined AUC stays one).
        np.testing.assert_array_equal(current[key], expected, err_msg=key)
