"""The per-packet object path: the reference the engines are checked against.

:mod:`tests.oracle.objects` propagates :class:`~repro.net.packet.Packet`
objects along a :class:`~repro.simulation.scenario.PathScenario` one by one
and feeds them, one packet at a time, to the reference collectors of
:mod:`tests.oracle.collectors`.  It shares no propagation or observation code
with :mod:`repro.engine.streaming` or the batch collectors, so a cell run here
and a cell run on the batch or streaming engine agreeing byte for byte is real
evidence that the vectorised traversal and collection are right.
"""
