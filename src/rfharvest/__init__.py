"""Behavioral simulator of an ambient-RF energy-harvesting sensor node.

Models the full chain from the ambient field to a duty-cycled radio:
antenna reflection, resonant boost, multi-stage voltage rectification,
two-capacitor storage with leakage and DC-DC transfer, and the
energy-management state machine that gates checks, measurements and
transmissions.  Every run carries an exact energy ledger; conservation
is enforced, not sampled.
"""
