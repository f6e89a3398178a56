import numpy as np
import pytest

from folkmotif.attention import _encode, _param_arrays, backward, zero_gradients
from folkmotif.tokens import TokenizedSong


def central_difference(f, x, h=1e-5):
    """Numerical gradient of a scalar function at x, one coordinate at a time.

    Perturbs x in place (and restores it), so f may either use the argument
    it receives or close over x inside a larger parameter structure.
    """
    x = np.asarray(x)
    grad = np.zeros_like(x, dtype=np.float64)
    flat, g = x.ravel(), grad.ravel()
    if not np.shares_memory(flat, x):
        raise ValueError("x must be contiguous so it can be perturbed in place")
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def assert_gradients_close(analytic, numeric, rtol=1e-4, what="gradient"):
    err = relative_error(analytic, numeric)
    assert err < rtol, f"{what}: relative error {err:.3e} exceeds {rtol:.0e}"


def at_float64(params):
    """params, changed in place so that its GRU arrays are float64 like the
    rest. The shipped code path then runs wholly in float64, which is the
    precision that finite differences and exact-agreement checks need; the
    model init_model builds runs its GRU scans in float32."""
    for direction in (params.gru_fwd, params.gru_bwd):
        direction.w, direction.u, direction.b = (
            arr.astype(np.float64) for arr in (direction.w, direction.u, direction.b)
        )
    return params


def encode_one(x, params):
    """One song through the batch encoder, as a batch of one."""
    return _encode([x], params).songs[0]


def song_loss(x, label, params):
    """The negative log likelihood of one song's label, encoded alone."""
    with np.errstate(divide="ignore"):
        return float(-np.log(encode_one(x, params).probs[label]))


def assert_batch_gradient_matches_finite_differences(params, batch):
    """backward's gradient of a mini-batch's summed loss, for every parameter
    array, against central differences of the songs' single-song losses."""
    grads = zero_gradients(params)
    backward(batch, params, grads)
    analytic = dict(_param_arrays(grads))

    def summed_loss(_):
        return sum(song_loss(ex.x, ex.label, params) for ex in batch)

    for name, arr in _param_arrays(params):
        assert_gradients_close(analytic[name], central_difference(summed_loss, arr), what=name)


@pytest.fixture
def fixture_songs():
    """Small two-topic token corpus: p/q and r/s tokens never cross topics."""
    songs = []
    for i in range(8):
        songs.append(TokenizedSong(id=f"pq{i}", label="alpha", tokens=("p", "q") * 10))
        songs.append(TokenizedSong(id=f"rs{i}", label="beta", tokens=("r", "s") * 10))
    return songs
