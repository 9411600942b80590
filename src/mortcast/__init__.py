"""Old-age mortality modelling and forecasting.

Two models over logit initial mortality rates on an age x year grid: a
Gaussian mixed-effects time-series model with correlated age and random
cohort effects (marginal-likelihood fit, BLUP recovery, closed-form
prediction intervals) and the three-factor CBD baseline (Poisson fit
under identifiability constraints, random-walk-with-drift forecasts),
plus a rolling-window RMSE backtest harness and a CLI.
"""

__version__ = "0.1.0"
