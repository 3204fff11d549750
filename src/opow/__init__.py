"""Desk-scale optical proof of work.

HeavyHash (matrix-weighted double SHA-256), a Hashcash mining/verification
engine with chain state, a deterministic network-attack simulator, a
photonic directional-coupler mesh emulator for the weighting stage, and a
CAPEX/OPEX mining-economics model.

The package re-exports nothing: import from the submodules, for example
`from opow.heavyhash import heavyhash`.
"""
