"""Every documented refusal of the library raises its exception type with
its message. The command line keeps most of these inputs away: argparse
refuses a negative --steps, a --trials below 1 and a p past a gate before
any of them reaches the library."""

import numpy as np
import pytest

from circlewalk.bounds import SpectrumReport, spectral_tv_bound
from circlewalk.circles import DENSE_TABLE_LIMIT, StructureTensor, validate_axioms
from circlewalk.modular import make_modulus, primes_3_mod_4
from circlewalk.walk import MixingReport, boost_epsilon, simulate

# the first prime = 3 (mod 4) past the dense-table limit: both table
# refusals fire before any work beyond N_1, 2 p^2 bytes
PAST = primes_3_mod_4(DENSE_TABLE_LIMIT + 1, 2 * DENSE_TABLE_LIMIT)[0]


def tensor_past_the_limit():
    return StructureTensor(make_modulus(PAST))


@pytest.mark.parametrize("refused, message", [
    pytest.param(lambda: validate_axioms(tensor_past_the_limit()),
                 f"axiom checks for p={PAST} exceed limit {DENSE_TABLE_LIMIT}",
                 id="validate_axioms-past-limit"),
    pytest.param(lambda: tensor_past_the_limit().scaled_table(),
                 f"dense table for p={PAST} exceeds limit {DENSE_TABLE_LIMIT}",
                 id="scaled_table-past-limit"),
    pytest.param(lambda: spectral_tv_bound(SpectrumReport(np.array([1.0, 0.5])), -1),
                 "t must be nonnegative", id="spectral_tv_bound-negative-t"),
    pytest.param(lambda: boost_epsilon(-1, 0.1),
                 "tau_base must be nonnegative", id="boost_epsilon-negative-tau_base"),
    pytest.param(lambda: simulate(make_modulus(7), -1, 10, 0),
                 "steps must be nonnegative", id="simulate-negative-steps"),
    pytest.param(lambda: simulate(make_modulus(7), 5, 0, 0),
                 "trials must be positive", id="simulate-no-trials"),
    pytest.param(lambda: MixingReport(0.1, (0.5, 0.6, 0.05)),
                 "worst-case TV curve must be non-increasing",
                 id="MixingReport-increasing-curve"),
    pytest.param(lambda: MixingReport(0.1, (0.5, 0.2)),
                 "curve does not cross the threshold at tau",
                 id="MixingReport-ends-above-epsilon"),
])
def test_a_documented_refusal_raises_its_value_error(refused, message):
    with pytest.raises(ValueError) as exc:
        refused()
    assert (type(exc.value), str(exc.value)) == (ValueError, message)
