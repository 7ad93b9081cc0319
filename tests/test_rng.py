import numpy as np
import pytest

from dpkalman import privatize
from dpkalman.rng import STREAM_INIT, STREAM_PRIVACY, STREAM_PROCESS, gaussian_generator

# The first draws of every stream tag in blocks 0 and 1 under seed 42. A change
# of bit generator, keying or draw order changes every seeded simulate and
# privatize result; it must show here and be announced, not pass unnoticed.
FIRST_DRAWS = {
    (0, STREAM_PROCESS): [0.06060162873768834, 1.7789943541606692, 0.516355671412391],
    (0, STREAM_PRIVACY): [0.611698249789688, 0.6736649212516199, 1.4289588197065741],
    (0, STREAM_INIT): [-1.340173140175103, 0.06053401888499743, -0.09376345850265091],
    (1, STREAM_PROCESS): [-1.1164553923243081, 0.14067110281768422, -0.5243027999521647],
    (1, STREAM_PRIVACY): [-0.16691822482760987, 1.0854703855037469, -0.5343139160520042],
    (1, STREAM_INIT): [-1.3736729439848265, 1.9636961504158208, 0.662381308573135],
}


@pytest.mark.parametrize("block,stream", list(FIRST_DRAWS))
def test_stream_fingerprint(block, stream):
    got = gaussian_generator(42, trial=block, stream=stream).standard_normal(3)
    np.testing.assert_allclose(got, FIRST_DRAWS[(block, stream)], rtol=1e-14, atol=0)


# The first draws of the simulate noise windows 0 and 1 of block 0's process
# stream and block 1's privacy stream under seed 42: the window is the last
# entry of the spawn key, and a key without one draws as FIRST_DRAWS above.
WINDOW_DRAWS = {
    (0, STREAM_PROCESS, 0): [0.11267482024277037, 1.075006437238324, 0.31494070380101263],
    (0, STREAM_PROCESS, 1): [0.8868375938494774, 0.5660292840830089, 0.9702511448702325],
    (1, STREAM_PRIVACY, 0): [2.1690516323934457, 0.8752531845369879, 2.6060315876265054],
    (1, STREAM_PRIVACY, 1): [0.08863909386291234, 0.6258420202136187, -0.7875684522658887],
}


@pytest.mark.parametrize("block,stream,window", list(WINDOW_DRAWS))
def test_window_fingerprint(block, stream, window):
    got = gaussian_generator(42, trial=block, stream=stream, window=window).standard_normal(3)
    np.testing.assert_allclose(got, WINDOW_DRAWS[(block, stream, window)], rtol=1e-14, atol=0)


def test_privatize_fingerprint():
    # stream index 3 of seed 42, scaled per channel by sigma = (1, 2)
    got = privatize(np.zeros((4, 2)), [1.0, 2.0], rng_seed=42, stream_index=3)
    expected = [[0.3696144045693157, -1.0829010660852727], [0.4467948392208601, -0.9495788612455885],
                [-1.2151863941655496, 3.0975087326524244], [-0.4407235444885634, -3.096538632600853]]
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
