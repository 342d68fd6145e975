"""adiatrack: tabular TD(0)/Q-learning tracking of drifting policies, with
mixing-bound and tracking-bound verification at desk scale."""

__version__ = "0.1.0"
