"""WiFi CSI crowd-counting toolkit.

Modules
-------
capture     CSI capture data model and bit-exact binary serialization
tensorfile  the header framing every file format shares, and the tensor format
sim         multipath channel simulator and phase-error injection
preprocess  filtering, PCA denoising, moving averages, phase sanitization
wavelet     Daubechies-4 wavelet transform and energy/variance features
hmm         Gaussian-emission hidden Markov models and door-event detection
neural      from-scratch neural network engine (LSTM / conv / dense, SGD)
counting    crowd-count training, evaluation, and the online session loop
cli         command-line entry point
"""
