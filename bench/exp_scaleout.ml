(* SCALEOUT — bank-at-scale closed-loop throughput and latency curves.

   The paper's pitch is linear growth: add processor/disc modules and the
   same workload runs faster, because requesting and serving are decoupled
   (requester/server) and data is partitioned across volumes. This
   experiment sizes that claim: one million accounts key-partitioned over
   two data volumes per node, a BANK / TRANSFER / INQUIRY server class and
   three terminal pools per node, and two sweeps over the same workload
   mix —

   - node curve: per-node terminal load held fixed while the cluster grows
     from 2 to 16 nodes; committed tx/sec should grow near-linearly since
     every node brings its own processors, volumes and server classes.
   - terminal curve: an 8-node cluster driven from hundreds to thousands
     of closed-loop terminals; tx/sec saturates at the cluster's capacity
     while p99 latency grows with queueing.

   Locality is the configured kind, not a simulator shortcut: each node's
   debit-credit terminals bank against the account/teller/branch key range
   their node's volumes own, and append to a node-local entry-sequenced
   history partition (one history file per branch region, the TPC-A
   arrangement). Transfers and inquiries pick accounts uniformly across
   the whole key space, so cross-node two-phase commits and remote reads
   stay in the mix at every size. Inputs come from a generator seeded
   independently of the cluster, so every configuration replays the same
   offered schedule shape.

   A run rewrites BENCH_scaleout.json in the cwd; `dune runtest` reruns it
   at --jobs 2 and diffs the result against the committed copy, written
   at --jobs 1. *)

open Tandem_sim
open Tandem_os
open Tandem_db
open Tandem_encompass
open Bench_util

let baseline_commit =
  "config 6815ef4: 1M accounts, 2 data volumes + 3 server classes + 3 \
   terminal pools per node, mix 1/4 debit-credit 3/8 transfer 3/8 inquiry, \
   group-commit 500us, controller cache 384 blocks"

(* The tuned commit path from the COMMITPATH experiment's all-on column:
   batching knobs amortize the per-transaction fixed costs the scale-out
   story depends on. *)
let config =
  {
    Hw_config.default with
    Hw_config.group_commit_window = Sim_time.microseconds 500;
    disc_cache_blocks = 384;
  }

let servers_per_class = 8

(* Terminal mix per node: a quarter debit-credit, the rest split between
   transfers and inquiries. *)
let mix ~terminals_per_node =
  let dc = terminals_per_node / 4 in
  let transfer = 3 * terminals_per_node / 8 in
  (dc, transfer, terminals_per_node - dc - transfer)

type built = {
  cluster : Cluster.t;
  spec : Workload.bank_spec;
  tcps : Tcp.t list;
  (* (node, tcp, terminals, kind) in deterministic submission order *)
  pools : (int * Tcp.t * int * [ `Dc | `Transfer | `Inquiry ]) list;
}

let make_cluster ~accounts ~nodes ~terminals_per_node =
  let cluster = Cluster.create ~seed:21 ~config () in
  for n = 1 to nodes do
    ignore (Cluster.add_node cluster ~id:n ~cpus:4)
  done;
  (* Full mesh: cross-node traffic (transfers, remote reads, commit
     coordination) pays one network hop, never a relay through a hub. *)
  for a = 1 to nodes do
    for b = a + 1 to nodes do
      Cluster.link cluster a b
    done
  done;
  let data_volume n side = Printf.sprintf "$DATA%d%s" n side in
  List.iter
    (fun n ->
      ignore
        (Cluster.add_volume cluster ~node:n ~name:(data_volume n "A")
           ~primary_cpu:2 ~backup_cpu:3 ());
      ignore
        (Cluster.add_volume cluster ~node:n ~name:(data_volume n "B")
           ~primary_cpu:3 ~backup_cpu:2 ()))
    (List.init nodes (fun i -> i + 1));
  let account_partitions =
    List.concat_map
      (fun n -> [ (n, data_volume n "A"); (n, data_volume n "B") ])
      (List.init nodes (fun i -> i + 1))
  in
  let spec =
    {
      Workload.accounts;
      tellers = 40 * nodes;
      branches = 8 * nodes;
      initial_balance = 10_000;
      account_partitions;
      system_home = (1, data_volume 1 "A");
    }
  in
  Workload.install_bank cluster spec;
  let dc_t, tr_t, inq_t = mix ~terminals_per_node in
  let pools =
    List.concat_map
      (fun n ->
        let class_name prefix = Printf.sprintf "%s%d" prefix n in
        let history = Printf.sprintf "HISTORY%d" n in
        (* A node-local history partition: every branch region keeps its
           own entry-sequenced history file, so history appends scale with
           nodes instead of funnelling to one volume. *)
        Cluster.add_file cluster
          (Schema.define ~name:history ~organization:Schema.Entry_sequenced
             ~degree:32
             ~partitions:
               [
                 {
                   Schema.low_key = Key.min_key;
                   node = n;
                   volume = data_volume n "B";
                 };
               ]
             ());
        ignore
          (Workload.add_bank_servers cluster ~node:n
             ~class_name:(class_name "BANK") ~history_file:history
             ~count:servers_per_class ());
        ignore
          (Workload.add_transfer_servers cluster ~node:n
             ~class_name:(class_name "TRANSFER") ~count:servers_per_class ());
        ignore
          (Workload.add_inquiry_servers cluster ~node:n
             ~class_name:(class_name "INQUIRY") ~count:servers_per_class ());
        (* A TCP controls at most 32 terminals (the era's span of control);
           bigger pools shard across several TCPs on the node. *)
        let rec chunk terminals =
          if terminals <= 0 then []
          else if terminals <= 32 then [ terminals ]
          else 32 :: chunk (terminals - 32)
        in
        let tcp kind suffix terminals program =
          List.mapi
            (fun i size ->
              ( n,
                Cluster.add_tcp cluster ~node:n
                  ~name:(Printf.sprintf "$TCP%s%d-%d" suffix n i)
                  ~terminals:size ~program (),
                size,
                kind ))
            (chunk terminals)
        in
        tcp `Dc "D" dc_t
          (Workload.debit_credit_program_for ~server_class:(class_name "BANK"))
        @ tcp `Transfer "T" tr_t
            (Workload.transfer_program_for
               ~server_class:(class_name "TRANSFER"))
        @ tcp `Inquiry "Q" inq_t
            (Workload.balance_inquiry_program_for
               ~server_class:(class_name "INQUIRY")))
      (List.init nodes (fun i -> i + 1))
  in
  { cluster; spec; tcps = List.map (fun (_, t, _, _) -> t) pools; pools }

(* Debit-credit terminals bank locally: accounts, tellers and branches from
   the key range the terminal's node owns. Transfers and inquiries draw
   uniformly from the whole bank. The generator RNG is seeded independently
   of the cluster, so the offered schedule cannot be perturbed by the
   configuration under test. *)
let local_range ~total ~nodes ~node =
  let lo = (node - 1) * total / nodes in
  let hi = node * total / nodes in
  (lo, max 1 (hi - lo))

let input_for rng spec ~nodes ~node = function
  | `Dc ->
      let pick total =
        let lo, width = local_range ~total ~nodes ~node in
        lo + Rng.int rng width
      in
      Record.encode
        [
          ("account", string_of_int (pick spec.Workload.accounts));
          ("teller", string_of_int (pick spec.Workload.tellers));
          ("branch", string_of_int (pick spec.Workload.branches));
          ("delta", string_of_int (Rng.int_in_range rng ~lo:(-100) ~hi:100));
        ]
  | `Transfer -> Workload.transfer_input rng spec ()
  | `Inquiry -> Workload.balance_inquiry_input rng spec ()

type point = {
  p_nodes : int;
  p_terminals : int; (* cluster-wide *)
  p_committed : int;
  p_submitted : int;
  p_elapsed : Sim_time.span;
  p_tps : float;
  p_p50_ms : float;
  p_p99_ms : float;
}

let measure ~accounts ~nodes ~terminals_per_node ~per_terminal =
  let built = make_cluster ~accounts ~nodes ~terminals_per_node in
  let rng = Rng.create ~seed:4242 in
  let submitted = ref 0 in
  List.iter
    (fun (node, tcp, terminals, kind) ->
      for terminal = 0 to terminals - 1 do
        for _ = 1 to per_terminal do
          Tcp.submit tcp ~terminal (input_for rng built.spec ~nodes ~node kind);
          incr submitted
        done
      done)
    built.pools;
  let run =
    drain ~until:(Sim_time.minutes 60) built.cluster built.tcps
      ~submitted:!submitted
  in
  let latency = Metrics.read_sample run.metrics "encompass.tx_latency_ms" in
  {
    p_nodes = nodes;
    p_terminals = nodes * terminals_per_node;
    p_committed = run.committed;
    p_submitted = run.submitted;
    p_elapsed = run.elapsed;
    p_tps = run.tps;
    p_p50_ms = Metrics.percentile latency 0.5;
    p_p99_ms = Metrics.percentile latency 0.99;
  }

let point_row point =
  [
    string_of_int point.p_nodes;
    string_of_int point.p_terminals;
    Printf.sprintf "%d/%d" point.p_committed point.p_submitted;
    f2 (Sim_time.to_seconds_float point.p_elapsed);
    f1 point.p_tps;
    f1 point.p_p50_ms;
    f1 point.p_p99_ms;
  ]

let curve_columns =
  [ "nodes"; "terminals"; "committed"; "elapsed s"; "tx/sec"; "p50 ms"; "p99 ms" ]

let json_of_point point =
  Json.Obj
    [
      ("nodes", Json.Int point.p_nodes);
      ("terminals", Json.Int point.p_terminals);
      ("committed", Json.Int point.p_committed);
      ("submitted", Json.Int point.p_submitted);
      ("elapsed_s", Json.Float (Sim_time.to_seconds_float point.p_elapsed));
      ("tx_per_sec", Json.Float point.p_tps);
      ("p50_latency_ms", Json.Float point.p_p50_ms);
      ("p99_latency_ms", Json.Float point.p_p99_ms);
    ]

let write_json ~accounts ~node_curve ~terminal_curve =
  (* The headline configuration: a million-account bank, a node curve of at
     least 4 points reaching 8-16 nodes, a terminal curve reaching
     thousands of terminals. *)
  require (accounts >= 1_000_000) "scaleout: %d < 1M accounts" accounts;
  let nodes = List.map (fun p -> p.p_nodes) node_curve in
  require
    (List.length nodes >= 4)
    "scaleout: node curve has %d < 4 points" (List.length nodes);
  let peak = List.fold_left max 0 nodes in
  require (8 <= peak && peak <= 16)
    "scaleout: node curve peaks at %d nodes, want 8-16" peak;
  let terminals =
    List.fold_left (fun acc p -> max acc p.p_terminals) 0 terminal_curve
  in
  require (terminals >= 1000)
    "scaleout: terminal curve peaks at %d < 1000 terminals" terminals;
  List.iter
    (fun p ->
      require
        (Float.is_finite p.p_tps && Float.is_finite p.p_p99_ms)
        "scaleout: point at %d nodes, %d terminals lacks tx/sec or p99"
        p.p_nodes p.p_terminals)
    (node_curve @ terminal_curve);
  let scaling =
    match (node_curve, List.rev node_curve) with
    | first :: _, last :: _ when first.p_tps > 0.0 ->
        [
          ( "scaling_tps_largest_over_smallest",
            Json.Float (last.p_tps /. first.p_tps) );
        ]
    | _ -> []
  in
  let json =
    Json.Obj
      ([
         ("schema", Json.String "tandem-bench-scaleout/1");
         ("baseline_commit", Json.String baseline_commit);
         ( "config",
           Json.Obj
             [
               ("accounts", Json.Int accounts);
               ("cpus_per_node", Json.Int 4);
               ("data_volumes_per_node", Json.Int 2);
               ("servers_per_class", Json.Int servers_per_class);
               ( "mix",
                 Json.String "1/4 debit-credit, 3/8 transfer, 3/8 inquiry" );
             ] );
         ("node_curve", Json.List (List.map json_of_point node_curve));
         ("terminal_curve", Json.List (List.map json_of_point terminal_curve));
       ]
      @ scaling)
  in
  Bench_util.write_json ~what:"scale-out curves" "BENCH_scaleout.json" json

let run () =
  heading "SCALEOUT — million-account bank, tx/sec and p99 vs nodes/terminals";
  claim
    "requestors and servers decouple terminal handling from data access, so \
     adding processor/disc modules grows throughput near-linearly while the \
     transaction mechanism's overhead stays flat";
  let accounts = 1_000_000 in
  let node_points = [ 2; 4; 8; 12; 16 ] in
  let node_curve_terminals = 64 in
  let per_terminal = 4 in
  let terminal_nodes = 8 in
  (* The node curve already measures terminal_nodes at node_curve_terminals
     per node; the terminal sweep reuses that point instead of re-running
     it. *)
  let terminal_points = [ 16; 32; 128; 256 ] in
  (* Each point is a sealed cluster, so the sweep fans out on the domain
     pool (--jobs / TANDEM_JOBS; serial by default). *)
  let sweep points =
    pool_map
      (fun (nodes, terminals_per_node) ->
        let point =
          measure ~accounts ~nodes ~terminals_per_node ~per_terminal
        in
        (* Each point builds a fresh million-row cluster; return the heap
           to the OS before this domain takes the next one. *)
        Gc.compact ();
        point)
      points
  in
  Printf.printf "\nnode curve: %d accounts, %d terminals/node, %d tx/terminal\n"
    accounts node_curve_terminals per_terminal;
  let node_curve =
    sweep
      (List.map (fun nodes -> (nodes, node_curve_terminals)) node_points)
  in
  print_table ~columns:curve_columns (List.map point_row node_curve);
  Printf.printf "\nterminal curve: %d nodes, %d accounts\n" terminal_nodes
    accounts;
  let terminal_curve =
    let measured =
      sweep
        (List.map
           (fun terminals -> (terminal_nodes, terminals))
           terminal_points)
    in
    let shared =
      List.filter (fun p -> p.p_nodes = terminal_nodes) node_curve
    in
    List.sort (fun a b -> compare a.p_terminals b.p_terminals)
      (shared @ measured)
  in
  print_table ~columns:curve_columns (List.map point_row terminal_curve);
  write_json ~accounts ~node_curve ~terminal_curve;
  observed
    "with per-node server classes, per-region history partitions and \
     accounts sharded two volumes per node, committed tx/sec grows \
     near-linearly with node count at fixed per-node load (about 10x \
     from 2 to 16 nodes) and p99 eases rather than climbing — uniform \
     transfer/inquiry traffic spreads over more volumes, so the \
     transaction mechanism adds no cross-node serial bottleneck; the \
     terminal sweep saturates an 8-node cluster and converts further \
     offered load into queueing latency"
