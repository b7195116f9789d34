"""Membership-inference laboratory: shadow farms, likelihood-ratio and
adversarial-query attacks, and low-FPR ROC evaluation at desk scale."""

__version__ = "0.1.0"
