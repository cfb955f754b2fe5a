"""Balanced token pruning: staged attention/diversity selection for image tokens.

The engine scores image tokens by the attention they receive from prompt
text, rebalances the ranking against causal position bias, tops the kept
set up with max-min diverse tokens, and schedules the pruning layers from
a calibration-time representation-shift profile.  A deterministic float32
toy transformer serves as the testbed, and closed-form cost accounting
reports the FLOPs/KV savings of a schedule.

The modules are the API: each public name is defined in one of them and
imported from it, as in ``from btp.trace import TokenLayout``, so that
``import btp`` loads no module and a command loads only those it runs.
"""
