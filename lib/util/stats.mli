(** Summary statistics for repeated measurements.

    Mirrors the box-plot quantities reported in Figure 6 of the paper
    (minimum, 25th percentile, median, 75th percentile, maximum over 500
    runs), plus the geometric mean used by Table II. *)

type summary = {
  n : int;  (** number of samples *)
  min : float;
  p25 : float;  (** 25th percentile *)
  median : float;
  p75 : float;  (** 75th percentile *)
  max : float;
  mean : float;
}

(** [summarize samples] computes the box-plot summary of [samples].
    Percentiles use linear interpolation between order statistics.
    @raise Invalid_argument on an empty input. *)
val summarize : float array -> summary

(** [percentile p sorted] is the [p]-th percentile ([0. <= p <= 100.]) of an
    array already sorted in increasing order. *)
val percentile : float -> float array -> float

(** [geomean xs] is the geometric mean of [xs]; all elements must be
    positive. *)
val geomean : float list -> float

(** [mean xs] is the arithmetic mean. *)
val mean : float array -> float

(** [pp_summary ppf s] prints a one-line rendering of [s]. *)
val pp_summary : Format.formatter -> summary -> unit

(** {1 Streaming percentiles}

    A bounded reservoir (Vitter's algorithm R) over an unbounded stream:
    every value seen so far is in the sample with equal probability, so
    order statistics of the sample estimate those of the stream with a
    fixed memory footprint.  Deterministic for a fixed capacity and
    insertion sequence.  The [kfused] service uses one per request kind
    for latency reporting; min/max/mean are tracked exactly over the
    whole stream.  Not thread-safe — callers synchronize. *)

type reservoir

(** [reservoir capacity] is an empty reservoir keeping at most
    [capacity] samples.  @raise Invalid_argument if [capacity < 1]. *)
val reservoir : int -> reservoir

(** [add r x] observes one value. *)
val add : reservoir -> float -> unit

(** [count r] is the number of values observed (not retained). *)
val count : reservoir -> int

(** Percentile snapshot of a reservoir.  [p50]..[p99] are estimated from
    the retained sample; [samples], [q_min], [q_max], and [q_mean] are
    exact over everything observed. *)
type quantiles = {
  samples : int;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  q_min : float;
  q_max : float;
  q_mean : float;
}

(** [quantiles r] is [None] until at least one value was observed. *)
val quantiles : reservoir -> quantiles option
