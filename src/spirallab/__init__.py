"""spirallab: numerical verification of covering bounds, Koenigs functions and
Roper-Suffridge type extension operators on the ball of C x C^m."""

__version__ = "0.1.0"
