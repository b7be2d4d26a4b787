"""Check every hand-written backward pass against central differences.

All gradients in this library are derived by hand, so the safety net is
a finite-difference oracle run in double precision: perturb one
coordinate at a time and compare (f(x+e) - f(x-e)) / 2e with the
analytic value.
"""

import numpy as np

from sru.aggregation import _FusionPass
from sru.backbone import GATE_NAMES, gru_cell_backward, gru_cell_forward
from sru.numerics import ParamStore, _Buffers, _softmax_loss, finite_difference_check

rng = np.random.default_rng(3)

print("=== recurrent cell ===")
d = 8
gates = {name: rng.normal(scale=0.4, size=(d,) if name.startswith("b") else (d, d))
         for name in GATE_NAMES}
x = rng.normal(size=(1, d))
h_prev = rng.normal(size=(1, d))
probe = rng.normal(size=(1, d))   # loss = h_new . probe

store = ParamStore()
for name in GATE_NAMES:
    store.params[name] = gates[name]
    store.grads[name] = np.zeros_like(gates[name])
_, cache = gru_cell_forward(gates, x, h_prev)
_, _, grads = gru_cell_backward(gates, cache, probe)
for name in GATE_NAMES:
    store.grads[name][...] = grads[name]

err = finite_difference_check(
    lambda s: float((gru_cell_forward(s.params, x, h_prev)[0] * probe).sum()),
    store,
)
print(f"max relative error over {store.num_values()} coordinates: {err:.2e}")

print("\n=== fusion stack (projection + attention + output network) ===")
k, d, f, d_ff, v, batch = 3, 6, 4, 6, 9, 4
full = ParamStore()
full.add("W_proj", rng.normal(scale=0.5, size=(k, d, d)))
full.add("b_proj", rng.normal(scale=0.2, size=(k, d)))
full.add("W_attn", rng.normal(scale=0.5, size=(d, f)))
full.add("b_attn", rng.normal(scale=0.2, size=f))
full.add("g_attn", rng.normal(scale=0.5, size=f))
full.add("W1", rng.normal(scale=0.5, size=(d, d_ff)))
full.add("b1", rng.normal(scale=0.2, size=d_ff))
full.add("W2", rng.normal(scale=0.5, size=(d_ff, v)))
full.add("b2", rng.normal(scale=0.2, size=v))
# feature-table rows: each shard's state, then a ones column
H = np.ones((batch, k, d + 1))
H[:, :, :d] = rng.normal(size=(batch, k, d))
C = rng.normal(size=(k, d))
targets = rng.integers(0, v, size=batch)


def fusion_loss(_store):
    # the mean cross-entropy, from the output-layer-and-loss kernel that
    # both trainers share
    hidden = _FusionPass(full.params, C, H, _Buffers()).forward()
    loss_sum, _, _, _ = _softmax_loss(hidden, full.params["W2"].T, full.params["b2"],
                                      targets, batch)
    return loss_sum / batch


full.zero_grads()
_FusionPass(full.params, C, H, _Buffers(), full.grads).step(targets)
err = finite_difference_check(fusion_loss, full)
print(f"max relative error over {full.num_values()} coordinates: {err:.2e}")
print("\nanything below 1e-4 in double precision counts as a pass; "
      "hand-written backprop usually lands near 1e-8.")
