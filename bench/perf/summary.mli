(** Order statistics for run-to-run comparison. *)

val median : float list -> float
(** Middle value; mean of the two middle values for an even count.
    Raises [Invalid_argument] on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by Python's [statistics.quantiles(xs, n=4)] (the
    default exclusive method), so numbers agree with scripts that use it.
    A single value is its own quartiles. Raises [Invalid_argument] on an
    empty list. *)

val spread : float list -> float
(** Interquartile distance as a share of the median ([0] when the median
    is [0] and the values agree). *)
