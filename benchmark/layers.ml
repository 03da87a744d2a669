(* Per-layer metrics, read through the libraries' public counters and
   accessors.

   A snapshot is taken when set-up ends and again when the workload ends;
   every simulated per-layer metric is the delta between the two, so the
   bulk load's cache traffic (millions of hits at a million accounts) never
   leaks into a ratio. Each ratio carries its base. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass

type metric = {
  name : string;
  unit : string;
  value : float;
  base : string;  (** What the ratio was taken over; [""] for levels. *)
}

let counter_names =
  [
    "os.msgs_local";
    "os.checkpoints";
    "dp.coalesced_checkpoints";
    "net.msgs_sent";
    "net.boxcars";
    "rpc.calls";
    "disk.forced_writes";
    "audit.forces";
    "tmf.prepares_sent";
    "tmp.fast_path_commits";
    "tmp.read_only_votes";
    "tmp.phase2_pruned";
    "lock.waits";
    "encompass.restarts";
  ]

type snapshot = {
  at : Sim_time.t;
  events : int;
  cancelled : int;
  counters : (string * int) list;
  cpu_busy : Sim_time.span list;  (** Every processor of every node. *)
  volume_io : (int * int) list;  (** (reads, writes) of every volume. *)
  cache_hits : int;
  cache_misses : int;
  force_batches : int * float;  (** Count and sum of forced-write batches. *)
}

let take cluster =
  let engine = Cluster.engine cluster in
  let metrics = Cluster.metrics cluster in
  let stores = List.map Discprocess.store (Cluster.all_discprocesses cluster) in
  let sum f = List.fold_left (fun acc store -> acc + f store) 0 stores in
  let batches = Metrics.read_sample metrics "disk.force_batch_size" in
  let batch_count = Metrics.sample_count batches in
  {
    at = Engine.now engine;
    events = Engine.events_executed engine;
    cancelled = Engine.events_cancelled engine;
    counters =
      (* [tmf.commits] counts once per participant node; the home node's
         commit-latency histogram counts each transaction once. *)
      ( "commits",
        Metrics.histogram_count (Metrics.read_histogram metrics "tmf.commit_latency_ms") )
      :: List.map (fun name -> (name, Metrics.sum_counters metrics name)) counter_names;
    cpu_busy =
      List.concat_map
        (fun node ->
          List.init (Node.cpu_count node) (fun cpu ->
              Cpu.total_busy (Node.cpu node cpu)))
        (Net.nodes (Cluster.net cluster));
    volume_io =
      List.map
        (fun volume -> Tandem_disk.Volume.(reads volume, writes volume))
        (Cluster.volumes cluster);
    cache_hits = sum Tandem_db.Store.cache_hits;
    cache_misses = sum Tandem_db.Store.cache_misses;
    force_batches =
      ( batch_count,
        if batch_count = 0 then 0.
        else Metrics.mean batches *. float_of_int batch_count );
  }

(* Queue gauges sampled every 100 ms of simulated time by the traced run. *)
type gauges = {
  mutable lock_waiters : float;  (** Sum over samples. *)
  mutable server_queue : float;
  mutable samples : int;
}

type recovery = { stats : Tmf.Rollforward.stats; recovery_ms : float }

let ratio num den = if den = 0. then 0. else num /. den

let ms span = Sim_time.to_seconds_float span *. 1000.

(* Mean BEGIN→phase-one, phase-one→phase-two and phase-two→END times over
   the committed spans still in the cluster's bounded span ring. *)
let phase_means spans =
  let committed =
    List.filter_map
      (fun (s : Span.span) ->
        match (s.outcome, s.phase1_at, s.end_at) with
        | Span.Committed, Some p1, Some e ->
            let p2 = Option.value s.phase2_at ~default:e in
            Some (ms (p1 - s.begin_at), ms (p2 - p1), ms (e - p2))
        | _ -> None)
      (Span.finished spans)
  in
  let n = float_of_int (List.length committed) in
  let mean f = ratio (List.fold_left (fun acc x -> acc +. f x) 0. committed) n in
  ( List.length committed,
    mean (fun (a, _, _) -> a),
    mean (fun (_, b, _) -> b),
    mean (fun (_, _, c) -> c) )

let sum f items = List.fold_left (fun acc x -> acc + f x) 0 items

let derive cluster ~tracer ~base ~final ~committed ~gauges ~recovery =
  let metric ?(base = "") name unit value = { name; unit; value; base } in
  let per name unit num den base = metric ~base name unit (ratio num den) in
  let share name num den =
    per name "fraction" num den (Printf.sprintf "%.0f/%.0f" num den)
  in
  let counter name =
    float_of_int (List.assoc name final.counters - List.assoc name base.counters)
  in
  let tx = float_of_int committed in
  let per_tx name unit num = per name unit num tx (Printf.sprintf "%d tx" committed) in
  let commits = counter "commits" in
  let latency_base = Printf.sprintf "%.0f commits" commits in
  let per_commit name num = per name "count" num commits latency_base in
  let elapsed = Sim_time.to_seconds_float (final.at - base.at) in
  let busy =
    List.map2
      (fun b f -> ratio (Sim_time.to_seconds_float (f - b)) elapsed)
      base.cpu_busy final.cpu_busy
  in
  let io =
    List.map2 (fun (r0, w0) (r1, w1) -> (r1 - r0, w1 - w0)) base.volume_io final.volume_io
  in
  let disc_access =
    Sim_time.to_seconds_float (Net.config (Cluster.net cluster)).Hw_config.disc_access
  in
  let volume_util (r, w) =
    ratio ((float_of_int r /. 2. +. float_of_int w) *. disc_access) elapsed
  in
  let hits = float_of_int (final.cache_hits - base.cache_hits) in
  let misses = float_of_int (final.cache_misses - base.cache_misses) in
  let batches = float_of_int (fst final.force_batches - fst base.force_batches) in
  let batched = snd final.force_batches -. snd base.force_batches in
  let events = float_of_int (final.events - base.events) in
  let span_s name = Tracer.seconds tracer name in
  let span_field name f = match Tracer.find tracer name with Some s -> f s | None -> 0. in
  let run_field f = span_field "sim.run" f +. span_field "tmf.rollforward" f in
  let in_ring, exec_ms, phase1_ms, phase2_ms = phase_means (Cluster.spans cluster) in
  let ring_base = Printf.sprintf "%d of %.0f commits" in_ring commits in
  let commit_latency =
    Metrics.read_histogram (Cluster.metrics cluster) "tmf.commit_latency_ms"
  in
  let mean_gauge name f =
    match gauges with
    | Some g ->
        let samples = float_of_int g.samples in
        per name "count" (f g) samples (Printf.sprintf "%.0f samples" samples)
    | None -> metric ~base:"not sampled" name "count" 0.
  in
  let images, redone =
    match recovery with
    | Some { stats; _ } ->
        Tmf.Rollforward.(stats.images_scanned, stats.transactions_redone)
    | None -> (0, 0)
  in
  let images_base = Printf.sprintf "%d images" images in
  let images = float_of_int images in
  let recovery_ms = match recovery with Some r -> r.recovery_ms | None -> 0. in
  [
    metric "setup.topology_s" "s" (span_s "setup.topology");
    metric "setup.data_load_s" "s" (span_s "setup.data_load");
    metric "setup.spawn_s" "s" (span_s "setup.spawn");
    metric "setup.alloc_mwords" "Mwords"
      (span_field "setup" (fun s -> s.alloc_words /. 1e6));
    metric "setup.major_gcs" "count"
      (span_field "setup" (fun s -> float_of_int s.major_gcs));
    metric "sim.run_s" "s" (span_s "sim.run");
    per_tx "sim.events_per_tx" "count" events;
    per_tx "sim.events_cancelled_per_tx" "count"
      (float_of_int (final.cancelled - base.cancelled));
    per "sim.host_ns_per_event" "ns"
      ((span_s "sim.run" +. span_s "tmf.rollforward") *. 1e9)
      events
      (Printf.sprintf "%.0f events" events);
    per_tx "run.alloc_words_per_tx" "words" (run_field (fun s -> s.alloc_words));
    metric "run.major_gcs" "count" (run_field (fun s -> float_of_int s.major_gcs));
    metric "os.cpu_util_max" "fraction" (List.fold_left max 0. busy);
    metric "os.cpu_util_mean" "fraction"
      (ratio (List.fold_left ( +. ) 0. busy) (float_of_int (List.length busy)));
    per_tx "os.msgs_local_per_tx" "count" (counter "os.msgs_local");
    per_tx "os.checkpoints_per_tx" "count" (counter "os.checkpoints");
    per_tx "encompass.dp_checkpoints_coalesced_per_tx" "count"
      (counter "dp.coalesced_checkpoints");
    per_tx "os.net_msgs_per_tx" "count" (counter "net.msgs_sent");
    share "os.boxcar_share"
      (counter "net.msgs_sent" -. counter "net.boxcars")
      (counter "net.msgs_sent");
    per_tx "os.rpc_calls_per_tx" "count" (counter "rpc.calls");
    per_tx "disk.reads_per_tx" "count" (float_of_int (sum fst io));
    per_tx "disk.writes_per_tx" "count" (float_of_int (sum snd io));
    metric "disk.util_max" "fraction"
      (List.fold_left (fun acc v -> max acc (volume_util v)) 0. io);
    per_tx "disk.forced_writes_per_tx" "count" (counter "disk.forced_writes");
    per "disk.force_batch_size" "count" batched batches
      (Printf.sprintf "%.0f batches" batches);
    per_commit "audit.forces_per_commit" (counter "audit.forces");
    share "db.cache_hit_ratio" hits (hits +. misses);
    metric "db.blocks" "count"
      (float_of_int
         (sum
            (fun dp -> Tandem_db.Store.block_count (Discprocess.store dp))
            (Cluster.all_discprocesses cluster)));
    per_tx "lock.waits_per_tx" "count" (counter "lock.waits");
    mean_gauge "lock.waiters_mean" (fun g -> g.lock_waiters);
    per_tx "encompass.restarts_per_tx" "count" (counter "encompass.restarts");
    mean_gauge "encompass.server_queue_mean" (fun g -> g.server_queue);
    metric ~base:latency_base "tmf.tx_ms_p50" "ms"
      (Metrics.histogram_quantile commit_latency 0.5);
    metric ~base:latency_base "tmf.tx_ms_p99" "ms"
      (Metrics.histogram_quantile commit_latency 0.99);
    metric ~base:ring_base "tmf.exec_ms_mean" "ms" exec_ms;
    metric ~base:ring_base "tmf.phase1_ms_mean" "ms" phase1_ms;
    metric ~base:ring_base "tmf.phase2_ms_mean" "ms" phase2_ms;
    share "tmf.fast_path_share" (counter "tmp.fast_path_commits") commits;
    share "tmf.read_only_vote_share" (counter "tmp.read_only_votes")
      (counter "tmf.prepares_sent");
    per_tx "tmf.phase2_pruned_per_tx" "count" (counter "tmp.phase2_pruned");
    metric "audit.trail_images" "count" images;
    metric "tmf.transactions_redone" "count" (float_of_int redone);
    per "tmf.recovery_images_per_s" "1/s" images (recovery_ms /. 1000.) images_base;
  ]
  @
  match recovery with
  | None -> []
  | Some _ ->
      [
        metric "tmf.rollforward_s" "s" (span_s "tmf.rollforward");
        per "tmf.recovery_ms_per_image" "ms" recovery_ms images images_base;
      ]
