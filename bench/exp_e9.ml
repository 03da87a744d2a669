(* E9 — "Deadlock detection is by timeout, the interval being specified as
   part of the lock request."

   Symmetric transfers over a small hot set of accounts produce real lock
   cycles; the timeout breaks them and RESTART-TRANSACTION retries. The
   sweep over the timeout interval shows the trade-off: a short interval
   restarts transactions that were merely waiting, a long one leaves
   deadlocked transactions stalled. *)

open Tandem_sim
open Tandem_encompass
open Bench_util

let measure ~timeout_ms =
  let cluster, spec =
    Workload.build_bank ~seed:67
      ~config:
        { Tandem_os.Hw_config.default with
          lock_timeout = Sim_time.milliseconds timeout_ms }
      ~accounts:8 (* hot: lots of crossing transfers *)
      ~tellers:4 ~branches:2 ~initial_balance:10_000
      ~servers:[ `Transfer 4 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:8
      ~program:Workload.transfer_program ()
  in
  let rng = Rng.create ~seed:71 in
  let offered = 8 * 15 in
  for i = 0 to offered - 1 do
    Tcp.submit tcp ~terminal:(i mod 8) (Workload.transfer_input rng spec ())
  done;
  Cluster.run ~until:(Sim_time.minutes 5) cluster;
  record_registry
    ~label:(Printf.sprintf "timeout=%dms" timeout_ms)
    (Cluster.metrics cluster);
  (cluster, tcp, spec, offered)

let run () =
  heading "E9 — deadlock detection by lock timeout";
  claim
    "no deadlock detector runs; a lock request times out after its specified \
     interval, the server replies with an error, and the Screen COBOL \
     program calls RESTART-TRANSACTION";
  let rows =
    List.map
      (fun timeout_ms ->
        let cluster, tcp, spec, offered = measure ~timeout_ms in
        let metrics = Cluster.metrics cluster in
        [
          Printf.sprintf "%d ms" timeout_ms;
          Printf.sprintf "%d/%d" (Tcp.completed tcp) offered;
          string_of_int (Metrics.read_counter metrics "lock.timeouts");
          string_of_int (Tcp.restarts tcp);
          string_of_int (Tcp.failures tcp);
          f1 (Metrics.mean (Metrics.read_sample metrics "encompass.tx_latency_ms"));
          f1 (Metrics.percentile (Metrics.read_sample metrics "encompass.tx_latency_ms") 0.99);
          string_of_int (Workload.total_balance cluster spec - (8 * 10_000));
        ])
      [ 100; 250; 500; 1_000; 2_000 ]
  in
  print_table
    ~columns:
      [ "lock timeout"; "committed"; "lock timeouts"; "restarts"; "given up";
        "mean ms"; "p99 ms"; "funds drift" ]
    rows;
  observed
    "every run conserves funds (drift 0) — timeout-and-restart resolves the \
     deadlocks without ever violating atomicity; short timeouts restart more, \
     long timeouts stretch latency"
