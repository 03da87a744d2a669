(** Measurement registry for experiments.

    Counters count events (transactions committed, messages sent, forced disc
    writes); samples accumulate a distribution (latencies) and report mean
    and percentiles; histograms bucket a distribution in O(1) per
    observation. Every experiment table in the benchmark harness is
    printed from one of these registries, so the same code path feeds tests
    and benches. *)

type t

val create : unit -> t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** [counter t name] is the counter registered under [name], creating it at
    zero on first use. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int
(** Test hook: the counter's current value. *)

val read_counter : t -> string -> int
(** Value of the named counter; [0] if never touched. *)

(** {1 Labeled counters}

    A labeled counter is an ordinary counter registered under the canonical
    name [name{k1=v1,k2=v2}] (labels sorted by key), so per-label series
    like [commits{node=1}] appear individually in the registry while still
    aggregating by prefix. *)

val labeled_name : string -> (string * string) list -> string
(** Test hook: the canonical registry name for [name] with [labels]. *)

val counter_with : t -> string -> labels:(string * string) list -> counter

type counter_family
(** An interned single-label counter family, e.g. [rpc.calls{name=…}]:
    resolving a label value pays the canonical-name formatting and registry
    lookup once, then returns a cached handle. *)

val counter_family : t -> name:string -> label:string -> counter_family

val family_counter : counter_family -> string -> counter
(** [family_counter f value] is physically the same counter as
    [counter_with t name ~labels:[(label, value)]], so hot paths holding a
    family and cold paths using the string-keyed API always agree. *)

val sum_counters : t -> string -> int
(** Sum of the bare counter [name] plus every labeled variant
    [name{...}]. *)

(** {1 Samples (distributions)}

    A sample answers exactly: [mean], [percentile] and [sample_max] are
    computed from every observation. While every observation is an integer
    from 0 to 4095 (a batch size, a boxcar's occupancy) the sample keeps
    one count per value, so its storage is O(largest value) however many
    observations arrive, and the answers are bit-identical to those of a
    sorted list of floats. The first other observation turns it, once, into
    one float per observation. Either way {!to_json} lists the values in
    ascending order. *)

type sample

val sample : t -> string -> sample

val observe : sample -> float -> unit

val observe_span : t -> string -> Sim_time.span -> unit
(** Record a duration in milliseconds under the named sample. *)

val sample_count : sample -> int

val mean : sample -> float
(** [nan] when empty. *)

val percentile : sample -> float -> float
(** [percentile s 0.99] etc.; [nan] when empty. *)

val sample_max : sample -> float

val read_sample : t -> string -> sample

(** {1 Histograms}

    Fixed-bucket distributions: O(1) per observation and O(buckets) storage,
    so the hot paths can be instrumented without retaining every sample.
    Quantiles are estimated by linear interpolation inside the bucket where
    the cumulative count crosses the target rank, clamped to the exactly
    tracked [min, max] — the estimate always lands in the same bucket as the
    true (nearest-rank) sample quantile, i.e. the error is bounded by one
    bucket width. *)

type histogram

val histogram : ?bounds:float array -> t -> string -> histogram
(** The histogram registered under the name, created on first use with
    [bounds] (by default 16 roughly geometric upper bounds in
    milliseconds, 0.25 ms to 30 s; values above the last bound land in an
    overflow bucket). [bounds] must ascend strictly. *)

val observe_histogram : histogram -> float -> unit

val observe_latency : t -> string -> Sim_time.span -> unit
(** Record a duration in milliseconds under the named histogram. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val histogram_mean : histogram -> float
(** Test hook: the mean; [nan] when empty. *)

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h 0.99] etc.; [nan] when empty. *)

val histogram_min : histogram -> float
(** Test hook: exact observed minimum; [nan] when empty. *)

val histogram_max : histogram -> float
(** Exact observed extremes; [nan] when empty. *)

val histogram_buckets : histogram -> ((float * float) * int) list
(** Test hook: [((lo, hi), count)] per bucket, in ascending order; the overflow
    bucket's [hi] is the observed max. *)

val read_histogram : t -> string -> histogram

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds every metric of [src] into [into]: counters
    add, samples add their counts or append their observations, histograms
    sum buckets / count / sum and widen min/max (bounds must match).
    Metrics absent from [into] are created. The export does not depend on
    the merge order; only a float sample's [mean] can differ in its last
    bits, so merge per-task registries in task order for reproducible
    reports. Raises [Invalid_argument] when a name is registered with a
    different metric type in each registry. *)

(** {1 Reporting} *)

val pp : Format.formatter -> t -> unit
(** Render the whole registry as an aligned table. *)

(** {1 JSON export}

    The machine-readable form behind [tandem stats --json] and the bench
    registries whose MD5s [BENCH_results.json] pins: one member per metric,
    in name order; see docs/OBSERVABILITY.md for the schema. The committed
    digests hash this text, so a test pins it byte for byte. *)

val to_json : t -> Json.t
