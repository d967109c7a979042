(** The fuzzing campaign driver.

    Replays the corpus first (a bug stays found until fixed), then
    generates [cases] fresh pipelines from [(seed, index)] pairs and
    runs each through the {!Oracle} bank.  A failing case is shrunk to
    a minimal reproducer ({!Shrink}), persisted to the corpus
    ({!Corpus}), and reported with full provenance.  The summary also
    aggregates the feature-coverage table (what fraction of generated
    cases exercised convolutions, diamonds, reductions, ...) and the
    min-cut-vs-exhaustive optimality statistics, so a green run still
    says something quantitative about what was tested. *)

type options = {
  cases : int;  (** generated cases (corpus replays are extra) *)
  seed : int;
  shrink : bool;  (** shrink failures to minimal reproducers *)
  corpus : string option;  (** replay + persist directory *)
  max_kernels : int;  (** DAG size bound for generation *)
  strict_optimal : bool;  (** heuristic optimality gaps are failures *)
  jobs : int;  (** > 1 enables the pool-determinism oracle on that many domains *)
  max_failures : int;  (** stop the campaign after this many failures *)
  cache_dir : string option;
      (** disk tier for the cache-replay oracle and the native oracle's
          compile cache; [None] makes a fresh directory under the
          system temp dir, removed when {!run} returns *)
  native : bool;
      (** append the opt-in {!Oracle.Native_exec} and
          {!Oracle.Stream_exec} oracles to the bank: compile each fused
          plan with the host C toolchain and demand bitwise agreement
          with the interpreter — per single execution, and across a
          multi-frame streaming push sequence with temporal state
          carried between frames.  Much slower (C compiles per case);
          skips silently on toolchain-less hosts *)
  oracles : Oracle.name list option;
      (** run exactly these oracles, in this order, instead of the
          default bank ([None]); overrides [native].  The tier-1
          suite's pinned incremental-replan campaign uses
          [Some [Incremental_replan]] *)
}

val default_options : options

type origin = Generated of int  (** case index *) | Replayed of string  (** corpus path *)

type failure_report = {
  origin : origin;
  oracle : Oracle.name;
  detail : string;
  pipeline : Kfuse_ir.Pipeline.t;  (** as generated/loaded *)
  shrunk : Kfuse_ir.Pipeline.t option;  (** minimal reproducer, when shrinking ran *)
  saved : string option;  (** corpus path the reproducer was persisted to *)
}

type summary = {
  cases_run : int;
  corpus_replayed : int;
  corpus_errors : (string * string) list;  (** unreadable corpus entries *)
  failures : failure_report list;
  optimal : int;  (** cases where min-cut matched the exhaustive optimum *)
  gaps : int;  (** cases with a heuristic optimality gap *)
  max_gap : float;
  beta_unchecked : int;  (** cases too large for the exhaustive oracle *)
  feature_counts : (string * int) list;  (** coverage: flag -> generated cases showing it *)
}

(** [run ?log options] executes the campaign.  [log] receives one-line
    progress messages (default: none). *)
val run : ?log:(string -> unit) -> options -> summary

(** [failed s] — did anything fail (corpus errors included)? *)
val failed : summary -> bool

val pp_summary : Format.formatter -> summary -> unit
