"""The exact message of each constructor and parser argument check that no
other test reaches."""

import numpy as np
import pytest

from conftest import csr_dataset
from gradagrad import (Adam, Domain, MinibatchStream, alpha_identity_sides, normalize_labels,
                       parse_libsvm_line)


@pytest.mark.parametrize("call,message", [
    (lambda: Domain(lower=[0.0]), "box domain needs both lower and upper bounds"),
    (lambda: Domain.box([0.0, 0.0], [1.0]), "box bounds must have matching shapes"),
    (lambda: Adam(np.zeros(2), beta1=1.0), "betas must be in [0, 1), got (1.0, 0.999)"),
    (lambda: parse_libsvm_line("   ", 3), "line 3: empty line"),
    (lambda: normalize_labels(csr_dataset([(1.0, [(0, 1.0)]), (2.0, [])], dim=1), {1.0: 1.0, 2.0: 0.0}),
     "label mapping values must be -1 or +1"),
    (lambda: MinibatchStream(0, 2, 0), "need at least one example"),
    (lambda: MinibatchStream(5, 0, 0), "batch_size must be >= 1, got 0"),
    (lambda: alpha_identity_sides([]), "need at least one gradient"),
], ids=["domain-one-bound", "domain-shapes", "adam-beta1", "libsvm-empty-line", "label-map-zero",
        "stream-no-examples", "stream-batch-0", "identity-no-gradients"])
def test_a_rejected_argument_has_its_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
