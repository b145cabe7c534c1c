"""One-row calls of the minibatch gradient kernels, for tests that check
one sample's gradient: each passes its sample as a batch of one row."""

import numpy as np

from dflkit.learning import pfyl_batch_gradient, spo_plus_batch_gradient


def spo_plus_gradient(ts_i, chat, inst, audit=None):
    return spo_plus_batch_gradient(ts_i.decision_mean()[None], ts_i.ref_cost[None],
                                   np.asarray(chat, dtype=np.float64)[None], inst, audit)[0]


def pfyl_gradient(ts_i, chat, inst, samples, sigma, stream, audit=None):
    return pfyl_batch_gradient(ts_i.decision_mean()[None],
                               np.asarray(chat, dtype=np.float64)[None], inst,
                               samples, sigma, stream, audit)[0]
