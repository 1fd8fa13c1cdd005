"""Audio-visual person verification: recursive joint cross-attention fusion,
temporal pooling, angular-margin training, and trial-based evaluation."""
