"""The per-packet object path: the reference the engines are checked against.

:mod:`tests.oracle.objects` propagates :class:`~repro.net.packet.Packet`
objects along a :class:`~repro.simulation.scenario.PathScenario` one by one
and feeds the HOP collectors through their per-packet ``observe``.  It shares
no propagation code with :mod:`repro.engine.streaming`, so a cell run here and
a cell run on the batch or streaming engine agreeing byte for byte is real
evidence that the vectorised traversal is right.
"""
