# -*- coding: utf-8 -*-
"""
Reverse-mode autodiff from scratch
==================================

The whole package trains with one small tape-based autodiff engine:
ops executed inside a ``Tape`` block are recorded, and ``backward``
replays them in reverse to fill every reachable gradient.  This demo
differentiates a tiny network by hand, cross-checks one coordinate
against central finite differences, and then lets Adam minimize the
loss.
"""

import numpy as np

from qgkit import autodiff as ad
from qgkit.autodiff import AdamState, Tape, Tensor, adam_step, backward

###########################################################################
# A two-layer scoring network with a cross-entropy loss.  Everything is
# float64; Tensors are plain containers until a Tape is active.

rng = np.random.default_rng(0)
W1 = Tensor(rng.standard_normal((4, 8)) * 0.3, name="W1")
W2 = Tensor(rng.standard_normal((8, 3)) * 0.3, name="W2")
x = Tensor(rng.standard_normal((1, 4)))
gold = 2


def loss_fn():
    hidden = ad.tanh(ad.matmul(x, W1))
    scores = ad.matmul(hidden, W2)
    dist = ad.softmax(scores, axis=-1)
    return ad.cross_entropy(ad.reshape(dist, (3,)), gold)


with Tape() as tape:
    loss = loss_fn()
backward(tape, loss)

print(f"initial loss          {loss.item():.6f}")
print(f"dL/dW1 has shape      {W1.grad.shape}")

###########################################################################
# Spot-check the first W1 coordinate against (f(w+h) - f(w-h)) / 2h.
# The finite-difference probe only ever calls the forward pass.

h = 1e-6
saved = W1.data[0, 0]
W1.data[0, 0] = saved + h
f_plus = loss_fn().item()
W1.data[0, 0] = saved - h
f_minus = loss_fn().item()
W1.data[0, 0] = saved

estimate = (f_plus - f_minus) / (2 * h)
print(f"analytic dL/dW1[0,0]  {W1.grad[0, 0]:+.8f}")
print(f"finite difference     {estimate:+.8f}")

###########################################################################
# Adam, also hand-rolled, drives the loss down.  Rerunning the script
# reproduces these numbers exactly: the engine is deterministic.

params = {"W1": W1, "W2": W2}
state = AdamState()
for step in range(1, 101):
    with Tape() as tape:
        loss = loss_fn()
    backward(tape, loss)
    adam_step(params, state, lr=0.05)
    if step % 25 == 0:
        print(f"step {step:3d}  loss {loss.item():.6f}")
