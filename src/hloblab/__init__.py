"""Desk-scale limit order book forecasting pipeline.

Ingests LOBSTER-format tick data, builds an information-filtering graph from
pairwise mutual information between volume levels, and trains a three-head
convolutional + LSTM classifier of mid-price change direction on a
self-contained reverse-mode tensor engine.
"""

import os

# another BLAS thread count changes the trained bits and was slower in every probe pair
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
