(* E15 (ablation) — contention sensitivity of the locking design.

   The paper's record-granularity exclusive locks with timeout detection
   behave well while access is spread out; this sweep shows what happens as
   account popularity skews (Zipf theta): waits, timeouts and restarts climb
   while throughput falls — quantifying the regime the design is built
   for. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let measure ~skew =
  let bank =
    make_bank ~seed:107 ~cpus:4 ~tcp_count:2 ~terminals:8 ~accounts:40
      ~config:
        { Tandem_os.Hw_config.default with
          lock_timeout = Sim_time.milliseconds 750 }
      ()
  in
  queue_debit_credit bank ~per_terminal:25 ~skew;
  Cluster.run ~until:(Sim_time.minutes 4) bank.cluster;
  let metrics = Cluster.metrics bank.cluster in
  record_registry ~label:(Printf.sprintf "skew=%.1f" skew) metrics;
  ( total_completed bank,
    2 * 8 * 25,
    Metrics.read_counter metrics "lock.waits",
    Metrics.read_counter metrics "lock.timeouts",
    total_restarts bank,
    Metrics.mean (Metrics.read_sample metrics "encompass.tx_latency_ms"),
    Metrics.percentile (Metrics.read_sample metrics "encompass.tx_latency_ms") 0.99 )

let run () =
  heading "E15 — lock contention vs access skew (ablation)";
  claim
    "record-granularity exclusive locks with timeout detection (no lock
     escalation, no shared mode) — adequate while access spreads across
     records";
  let rows =
    List.map
      (fun skew ->
        let committed, offered, waits, timeouts, restarts, mean, p99 =
          measure ~skew
        in
        [
          Printf.sprintf "%.1f" skew;
          Printf.sprintf "%d/%d" committed offered;
          string_of_int waits;
          string_of_int timeouts;
          string_of_int restarts;
          f1 mean;
          f1 p99;
        ])
      [ 0.0; 0.5; 0.8; 1.0; 1.3 ]
  in
  print_table
    ~columns:
      [ "zipf theta"; "committed"; "lock waits"; "timeouts"; "restarts";
        "mean ms"; "p99 ms" ]
    rows;
  observed
    "waits and latency tails grow steadily with skew; timeouts stay at zero \
     because debit-credit acquires its locks in one consistent order, so no \
     cycles can form — deadlock timeouts appear only under crossing access \
     patterns (E9)"
