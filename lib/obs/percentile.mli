(** The one percentile formula shared by every statistics consumer
    (simulation stats, the metrics registry, the trace analyzers). *)

(** [linear sorted p] interpolates linearly between the two samples of
    [sorted] (ascending) bracketing rank [p/100 * (n-1)], so p0 is the
    minimum, p100 the maximum, and p95 on small [n] is not just the
    maximum.  A single sample answers every [p].  Callers check [p] lies
    in \[0,100\].  Raises [Invalid_argument] on an empty array. *)
val linear : float array -> float -> float
