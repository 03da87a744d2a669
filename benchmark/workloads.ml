(* The benchmark's workloads and one measured run of a workload.

   Every workload is a closed loop: a fixed set of terminals, each with all
   of its inputs queued before the run starts, each waiting for one
   screen's reply before starting the next. Every cluster uses
   [Hw_config.default] and a fixed cluster seed; the benchmark seed drives
   only the input generator. *)

open Tandem_sim
open Tandem_db
open Tandem_encompass
module Checker = Tandem_chaos.Checker

type size = Full | Smoke

type pool = { tcp : Tcp.t; input : Rng.t -> string }

type built = {
  cluster : Cluster.t;
  spec : Workload.bank_spec;
  pools : pool list;
  per_terminal : int;
  server_classes : string list;
  histories : (int * string * string) list;
      (** (node, volume, file) of every history partition the debit-credit
          servers append to; [[]] when that is the system-home HISTORY. *)
  dc_commits : int ref;  (** Debit-credits the terminals saw commit. *)
  crash_node : int option;
}

type t = {
  name : string;
  child_s : float;
      (** Host seconds one run of the workload takes on a 2-core x86 host;
          sets how many input sets a measurement of a given length runs. *)
  build : size -> Tracer.t -> built;
}

(* ------------------------------------------------------------------ *)
(* Set-up helpers *)

let mesh cluster nodes =
  List.iter
    (fun a -> List.iter (fun b -> if a < b then Cluster.link cluster a b) nodes)
    nodes

let is_debit_credit input = Record.field input "teller" <> None

(* Count the debit-credits a program carried to commit: the program returns
   only after END-TRANSACTION succeeded. *)
let counting dc_commits (program : Screen_program.t) =
  {
    program with
    Screen_program.run =
      (fun verbs input ->
        let output = program.Screen_program.run verbs input in
        if is_debit_credit input then incr dc_commits;
        output);
  }

(* A TCP controls at most 32 terminals; bigger pools shard over several. *)
let rec chunks terminals =
  if terminals <= 32 then [ terminals ] else 32 :: chunks (terminals - 32)

(* ------------------------------------------------------------------ *)
(* bank-scale: eight nodes, data larger than every cache, cross-node
   commits. Debit-credit terminals bank against their own node's key range
   and append to a node-local HISTORY<n>; transfers and inquiries draw
   uniformly from the whole bank. *)

let bank_scale size tracer =
  let nodes, accounts, terminals_per_node, per_terminal, servers =
    match size with
    | Full -> (8, 250_000, 64, 16, 8)
    | Smoke -> (2, 2_000, 8, 2, 2)
  in
  let node_ids = List.init nodes succ in
  let volume n side = Printf.sprintf "$DATA%d%s" n side in
  let cluster =
    Tracer.span tracer "setup.topology" (fun () ->
        let cluster = Cluster.create ~seed:21 () in
        List.iter (fun n -> ignore (Cluster.add_node cluster ~id:n ~cpus:4)) node_ids;
        mesh cluster node_ids;
        List.iter
          (fun n ->
            ignore
              (Cluster.add_volume cluster ~node:n ~name:(volume n "A")
                 ~primary_cpu:2 ~backup_cpu:3 ());
            ignore
              (Cluster.add_volume cluster ~node:n ~name:(volume n "B")
                 ~primary_cpu:3 ~backup_cpu:2 ()))
          node_ids;
        cluster)
  in
  let spec =
    {
      Workload.accounts;
      tellers = 40 * nodes;
      branches = 8 * nodes;
      initial_balance = 10_000;
      account_partitions =
        List.concat_map (fun n -> [ (n, volume n "A"); (n, volume n "B") ]) node_ids;
      system_home = (1, volume 1 "A");
    }
  in
  let history n = Printf.sprintf "HISTORY%d" n in
  Tracer.span tracer "setup.data_load" (fun () ->
      Workload.install_bank cluster spec;
      List.iter
        (fun n ->
          Cluster.add_file cluster
            (Schema.define ~name:(history n) ~organization:Schema.Entry_sequenced
               ~degree:32
               ~partitions:
                 [ { Schema.low_key = Key.min_key; node = n; volume = volume n "B" } ]
               ()))
        node_ids);
  let dc_commits = ref 0 in
  (* Debit-credit picks from the key range its node's volumes own. *)
  let local rng ~node total =
    let lo = (node - 1) * total / nodes in
    lo + Rng.int rng (max 1 ((node * total / nodes) - lo))
  in
  let debit_credit ~node rng =
    Record.encode
      [
        ("account", string_of_int (local rng ~node accounts));
        ("teller", string_of_int (local rng ~node spec.tellers));
        ("branch", string_of_int (local rng ~node spec.branches));
        ("delta", string_of_int (Rng.int_in_range rng ~lo:(-100) ~hi:100));
      ]
  in
  let pools =
    Tracer.span tracer "setup.spawn" (fun () ->
        List.concat_map
          (fun n ->
            let class_name prefix = Printf.sprintf "%s%d" prefix n in
            ignore
              (Workload.add_bank_servers cluster ~node:n ~class_name:(class_name "BANK")
                 ~history_file:(history n) ~count:servers ());
            ignore
              (Workload.add_transfer_servers cluster ~node:n
                 ~class_name:(class_name "TRANSFER") ~count:servers ());
            ignore
              (Workload.add_inquiry_servers cluster ~node:n
                 ~class_name:(class_name "INQUIRY") ~count:servers ());
            let dc = terminals_per_node / 4 in
            let transfer = 3 * terminals_per_node / 8 in
            let tcps suffix terminals program input =
              List.mapi
                (fun i size ->
                  {
                    tcp =
                      Cluster.add_tcp cluster ~node:n
                        ~name:(Printf.sprintf "$TCP%s%d-%d" suffix n i)
                        ~terminals:size ~program:(counting dc_commits program) ();
                    input;
                  })
                (chunks terminals)
            in
            tcps "D" dc
              (Workload.debit_credit_program_for ~server_class:(class_name "BANK"))
              (debit_credit ~node:n)
            @ tcps "T" transfer
                (Workload.transfer_program_for ~server_class:(class_name "TRANSFER"))
                (fun rng -> Workload.transfer_input rng spec ())
            @ tcps "Q" (terminals_per_node - dc - transfer)
                (Workload.balance_inquiry_program_for
                   ~server_class:(class_name "INQUIRY"))
                (fun rng -> Workload.balance_inquiry_input rng spec ()))
          node_ids)
  in
  {
    cluster;
    spec;
    pools;
    per_terminal;
    server_classes =
      List.concat_map
        (fun n ->
          List.map (fun c -> Printf.sprintf "%s%d" c n) [ "BANK"; "TRANSFER"; "INQUIRY" ])
        node_ids;
    histories = List.map (fun n -> (n, volume n "B", history n)) node_ids;
    dc_commits;
    crash_node = None;
  }

(* ------------------------------------------------------------------ *)
(* dc-hot: one node, debit-credit only, over 20 tellers and 10 branches, so
   every commit takes the single-node fast path and the hot rows make lock
   waits the tail. With one server per three terminals the server-class
   queue does not dominate: with two, latency splits into two modes and
   its median jumps between input sets. *)

let dc_hot size tracer =
  let tcp_count, terminals, per_terminal =
    match size with Full -> (3, 32, 200) | Smoke -> (1, 8, 4)
  in
  let cpus = 4 in
  let volumes = [ "$DATA1"; "$DATA2" ] in
  let cluster =
    Tracer.span tracer "setup.topology" (fun () ->
        let cluster = Cluster.create ~seed:42 () in
        ignore (Cluster.add_node cluster ~id:1 ~cpus);
        List.iteri
          (fun i name ->
            ignore
              (Cluster.add_volume cluster ~node:1 ~name
                 ~primary_cpu:((2 + i) mod cpus) ~backup_cpu:((3 + i) mod cpus) ()))
          volumes;
        cluster)
  in
  let spec =
    {
      Workload.accounts = 1_000;
      tellers = 20;
      branches = 10;
      initial_balance = 1_000;
      account_partitions = List.map (fun name -> (1, name)) volumes;
      system_home = (1, List.hd volumes);
    }
  in
  Tracer.span tracer "setup.data_load" (fun () -> Workload.install_bank cluster spec);
  let dc_commits = ref 0 in
  let pools =
    Tracer.span tracer "setup.spawn" (fun () ->
        ignore (Workload.add_bank_servers cluster ~node:1 ~count:32 ());
        List.init tcp_count (fun i ->
            {
              tcp =
                Cluster.add_tcp cluster ~node:1
                  ~name:(Printf.sprintf "$TCP%d" (i + 1))
                  ~primary_cpu:(i mod cpus) ~backup_cpu:((i + 1) mod cpus)
                  ~terminals
                  ~program:(counting dc_commits Workload.debit_credit_program)
                  ();
              input = (fun rng -> Workload.debit_credit_input rng spec ());
            }))
  in
  {
    cluster;
    spec;
    pools;
    per_terminal;
    server_classes = [ "BANK" ];
    histories = [];
    dc_commits;
    crash_node = None;
  }

(* ------------------------------------------------------------------ *)
(* inquiry-mostly: three nodes, data that fits the DISCPROCESS caches,
   servers on node 1 and terminals on every node; nine inputs in ten are
   read-only inquiries, the rest debit-credits. *)

let inquiry_mostly size tracer =
  let per_terminal = match size with Full -> 800 | Smoke -> 10 in
  let node_ids = [ 1; 2; 3 ] in
  let volume n = Printf.sprintf "$DATA%d" n in
  let cluster =
    Tracer.span tracer "setup.topology" (fun () ->
        let cluster = Cluster.create ~seed:1200 () in
        List.iter
          (fun n ->
            ignore (Cluster.add_node cluster ~id:n ~cpus:4);
            ignore
              (Cluster.add_volume cluster ~node:n ~name:(volume n) ~primary_cpu:2
                 ~backup_cpu:3 ()))
          node_ids;
        mesh cluster node_ids;
        cluster)
  in
  let spec =
    {
      Workload.accounts = 1_200;
      tellers = 30;
      branches = 6;
      initial_balance = 1_000;
      account_partitions = List.map (fun n -> (n, volume n)) node_ids;
      system_home = (1, volume 1);
    }
  in
  Tracer.span tracer "setup.data_load" (fun () -> Workload.install_bank cluster spec);
  let dc_commits = ref 0 in
  let program =
    counting dc_commits
      (Screen_program.transaction ~name:"inquiry-mostly" (fun verbs input ->
           let server_class = if is_debit_credit input then "BANK" else "INQUIRY" in
           verbs.Screen_program.send ~server_class input))
  in
  let input rng =
    if Rng.int rng 10 = 0 then Workload.debit_credit_input rng spec ()
    else Workload.balance_inquiry_input rng spec ()
  in
  let pools =
    Tracer.span tracer "setup.spawn" (fun () ->
        ignore (Workload.add_bank_servers cluster ~node:1 ~count:4 ());
        ignore (Workload.add_inquiry_servers cluster ~node:1 ~count:4 ());
        List.map
          (fun n ->
            {
              tcp =
                Cluster.add_tcp cluster ~node:n
                  ~name:(Printf.sprintf "$TCP%d" n)
                  ~terminals:8 ~program ();
              input;
            })
          node_ids)
  in
  {
    cluster;
    spec;
    pools;
    per_terminal;
    server_classes = [ "BANK"; "INQUIRY" ];
    histories = [];
    dc_commits;
    crash_node = None;
  }

(* ------------------------------------------------------------------ *)
(* crash-recover: eight nodes of transfers over a working set larger than
   the 256-block DISCPROCESS cache. Node 5 (an account-partition node, not
   the system home) is archived 100 ms in, the load runs to quiescence, the
   node fails totally and ROLLFORWARD rebuilds it. It crashes at
   quiescence: mid-load crashes break funds conservation (see README).
   Sixteen servers keep the server-class queue from dominating latency, as
   in dc-hot. *)

let crash_recover size tracer =
  let nodes = 8 in
  let accounts, terminals, per_terminal =
    match size with Full -> (64_000, 4, 256) | Smoke -> (4_000, 1, 4)
  in
  let node_ids = List.init nodes succ in
  let volume n = Printf.sprintf "$DATA%d" n in
  let cluster =
    Tracer.span tracer "setup.topology" (fun () ->
        let cluster = Cluster.create ~seed:1981 () in
        List.iter
          (fun n ->
            ignore (Cluster.add_node cluster ~id:n ~cpus:4);
            ignore
              (Cluster.add_volume cluster ~node:n ~name:(volume n) ~primary_cpu:2
                 ~backup_cpu:3 ()))
          node_ids;
        mesh cluster node_ids;
        cluster)
  in
  let spec =
    {
      Workload.accounts;
      tellers = 5 * nodes;
      branches = 2 * nodes;
      initial_balance = 1_000;
      account_partitions = List.map (fun n -> (n, volume n)) node_ids;
      system_home = (1, volume 1);
    }
  in
  Tracer.span tracer "setup.data_load" (fun () -> Workload.install_bank cluster spec);
  let dc_commits = ref 0 in
  let pools =
    Tracer.span tracer "setup.spawn" (fun () ->
        ignore (Workload.add_transfer_servers cluster ~node:1 ~count:16 ());
        List.map
          (fun n ->
            {
              tcp =
                Cluster.add_tcp cluster ~node:n
                  ~name:(Printf.sprintf "$TCP%d" n)
                  ~primary_cpu:0 ~backup_cpu:1 ~terminals
                  ~program:(counting dc_commits Workload.transfer_program)
                  ();
              input = (fun rng -> Workload.transfer_input rng spec ());
            })
          node_ids)
  in
  {
    cluster;
    spec;
    pools;
    per_terminal;
    server_classes = [ "TRANSFER" ];
    histories = [];
    dc_commits;
    crash_node = Some 5;
  }

let all =
  [
    { name = "bank-scale"; child_s = 5.0; build = bank_scale };
    { name = "dc-hot"; child_s = 3.5; build = dc_hot };
    { name = "inquiry-mostly"; child_s = 2.5; build = inquiry_mostly };
    { name = "crash-recover"; child_s = 3.0; build = crash_recover };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* End-to-end metrics *)

type clock = Sim | Host

let end_to_end =
  [
    ("tx_per_sec", "tx/s", Sim);
    ("latency_p50_ms", "ms", Sim);
    ("latency_p99_ms", "ms", Sim);
    ("failed_frac", "fraction", Sim);
    ("recovery_ms", "ms", Sim);
    ("setup_s", "s", Host);
    ("run_s", "s", Host);
    ("peak_rss_mb", "MB", Host);
  ]

type outcome = {
  workload : string;
  seed : int;
  run_id : string;
  submitted : int;
  committed : int;
  failed : int;  (** Inputs abandoned at the restart limit or aborted. *)
  input_digest : string;
  latency_samples : int;
  metrics : (string * float) list;
      (** End-to-end values; [recovery_ms] only where a node recovers. *)
  layers : Layers.metric list;
  checks : Checker.check list;
  spans : Tracer.span list;
}

(* ------------------------------------------------------------------ *)
(* Verification, read outside the simulation without charging I/O *)

let uncharged dp f =
  let store = Discprocess.store dp in
  Store.set_charging store false;
  Fun.protect ~finally:(fun () -> Store.set_charging store true) f

let fold_file cluster ~node ~volume ~file f init =
  let dp = Cluster.discprocess cluster ~node ~volume in
  match Discprocess.file dp file with
  | None -> init
  | Some handle ->
      uncharged dp (fun () ->
          let acc = ref init in
          File.iter handle (fun key payload -> acc := f !acc key payload);
          !acc)

(* The logical contents of every bank file on a node, as one digest. *)
let node_digest cluster node =
  let buffer = Buffer.create 65_536 in
  List.iter
    (fun (owner, volume) ->
      if owner = node then
        List.iter
          (fun file ->
            fold_file cluster ~node ~volume ~file
              (fun () key payload ->
                Buffer.add_string buffer
                  (String.concat "\000" [ volume; file; key; payload; "\n" ]))
              ())
          Workload.[ account_file; teller_file; branch_file; history_file ])
    (Cluster.data_volumes cluster);
  Digest.to_hex (Digest.string (Buffer.contents buffer))

let check name passed detail = { Checker.name; passed; detail }

(* [Checker.bank] reads only the system-home HISTORY file; when the
   debit-credit servers append to per-node partitions, conservation and
   durability are summed over every partition instead. *)
let bank_checks built =
  let spec = built.spec in
  let initial_total = spec.Workload.accounts * spec.Workload.initial_balance in
  let verdict =
    Checker.bank built.cluster ~spec ~initial_total
      ~debit_credit_completed:!(built.dc_commits) ()
  in
  match built.histories with
  | [] -> verdict.Checker.checks
  | partitions ->
      let records, deltas =
        List.fold_left
          (fun acc (node, volume, file) ->
            fold_file built.cluster ~node ~volume ~file
              (fun (records, deltas) _ payload ->
                ( records + 1,
                  deltas + Option.value ~default:0 (Record.int_field payload "delta") ))
              acc)
          (0, 0) partitions
      in
      let total = Workload.total_balance built.cluster spec in
      check "funds-conserved"
        (total = initial_total + deltas)
        (Printf.sprintf
           "balance total %d, expected %d (initial %d + deltas %d over %d partitions)" total
           (initial_total + deltas) initial_total deltas (List.length partitions))
      :: check "committed-durable"
           (records = !(built.dc_commits))
           (Printf.sprintf "%d history records for %d committed debit-credits" records
              !(built.dc_commits))
      :: List.filter
           (fun (c : Checker.check) ->
             c.Checker.name <> "funds-conserved" && c.Checker.name <> "committed-durable")
           verdict.Checker.checks

(* ------------------------------------------------------------------ *)
(* One run *)

(* ROLLFORWARD timed by the recovering fiber itself, so the figure excludes
   the engine pump slices around it. *)
let timed_recover cluster ~node archive =
  let engine = Cluster.engine cluster in
  let result = ref None in
  Cluster.run_client cluster ~node ~cpu:0 (fun process ->
      let started = Engine.now engine in
      let stats =
        Tmf.Rollforward.recover (Tmf.rollforward (Cluster.tmf cluster) node) ~self:process
          archive
      in
      result := Some (stats, Engine.now engine - started));
  let rec pump remaining =
    if !result = None && remaining > 0 then begin
      Cluster.run_for cluster (Sim_time.seconds 1);
      pump (remaining - 1)
    end
  in
  pump 3_600;
  match !result with
  | Some (stats, span) ->
      { Layers.stats; recovery_ms = Sim_time.to_seconds_float span *. 1000. }
  | None -> failwith "ROLLFORWARD did not complete within an hour of simulated time"

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; value ] ->
              Scanf.sscanf (String.trim value) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> acc)
        nan (String.split_on_char '\n' status)
  | exception Sys_error _ -> nan

let sum_over pools f = List.fold_left (fun acc pool -> acc + f pool.tcp) 0 pools

let unfinished pools = sum_over pools Tcp.failures + sum_over pools Tcp.program_aborts

(* Set up, load, run (and crash and recover), then verify. [traced] adds
   the read-only queue sampler; everything else is identical. *)
let execute ?(size = Full) ~traced ~seed w =
  let run_id = Printf.sprintf "%s/seed-%d/pid-%d" w.name seed (Unix.getpid ()) in
  let set_up () =
    let tracer = Tracer.create ~run_id in
    (tracer, Tracer.span tracer "setup" (fun () -> w.build size tracer))
  in
  let tracer, built = set_up () in
  let cluster = built.cluster in
  let engine = Cluster.engine cluster in
  let base = Layers.take cluster in
  let started = Engine.now engine in
  let inputs = Buffer.create 65_536 in
  let submitted =
    Tracer.span tracer "load.generate" (fun () ->
        let rng = Rng.create ~seed in
        List.fold_left
          (fun count pool ->
            for terminal = 0 to Tcp.terminal_count pool.tcp - 1 do
              for _ = 1 to built.per_terminal do
                let input = pool.input rng in
                Buffer.add_string inputs input;
                Buffer.add_char inputs '\n';
                Tcp.submit pool.tcp ~terminal input
              done
            done;
            count + (Tcp.terminal_count pool.tcp * built.per_terminal))
          0 built.pools)
  in
  (* Throughput is taken over the steady window between 10 % and 90 % of
     the inputs settling: the time the last input settles is one extreme
     value, set by whichever terminal restarts last. *)
  let window_start = ref None and window_end = ref None and settled_at = ref None in
  let rec poll () =
    let completed = sum_over built.pools Tcp.completed in
    let settled = completed + unfinished built.pools in
    let mark point fraction =
      if !point = None && float_of_int settled >= fraction *. float_of_int submitted then
        point := Some (Engine.now engine, completed)
    in
    mark window_start 0.1;
    mark window_end 0.9;
    if settled >= submitted then settled_at := Some (Engine.now engine)
    else Engine.post_after engine (Sim_time.milliseconds 10) poll
  in
  Engine.post_after engine (Sim_time.milliseconds 10) poll;
  let gauges = { Layers.lock_waiters = 0.; server_queue = 0.; samples = 0 } in
  let rec sample () =
    if !settled_at = None then begin
      let sum f items = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 items) in
      gauges.lock_waiters <-
        gauges.lock_waiters
        +. sum
             (fun dp -> Tandem_lock.Lock_table.waiting_count (Discprocess.lock_table dp))
             (Cluster.all_discprocesses cluster);
      gauges.server_queue <-
        gauges.server_queue
        +. sum
             (fun name ->
               Option.fold ~none:0 ~some:Server.queued_requests
                 (Cluster.server_class cluster name))
             built.server_classes;
      gauges.samples <- gauges.samples + 1;
      Engine.post_after engine (Sim_time.milliseconds 100) sample
    end
  in
  if traced then Engine.post_after engine (Sim_time.milliseconds 100) sample;
  let archive =
    Tracer.span tracer "sim.run" (fun () ->
        match built.crash_node with
        | None ->
            Cluster.run cluster;
            None
        | Some node ->
            Cluster.run ~until:(started + Sim_time.milliseconds 100) cluster;
            let archive = Cluster.take_archive cluster ~node in
            Cluster.run cluster;
            Some (node, archive))
  in
  let recovery, recovery_checks =
    match archive with
    | None -> (None, [])
    | Some (node, archive) ->
        let before = node_digest cluster node in
        let recovery =
          Tracer.span tracer "tmf.rollforward" (fun () ->
              Cluster.total_node_failure cluster ~node;
              timed_recover cluster ~node archive)
        in
        let after = node_digest cluster node in
        ( Some recovery,
          [
            check "node-restored" (before = after)
              (Printf.sprintf "node %d digest %s before the crash, %s after ROLLFORWARD"
                 node before after);
          ] )
  in
  let final = Layers.take cluster in
  let committed = sum_over built.pools Tcp.completed in
  let failed = unfinished built.pools in
  let checks =
    Tracer.span tracer "chaos.verify" (fun () ->
        check "inputs-settled"
          (!settled_at <> None)
          (Printf.sprintf "%d committed + %d failed of %d submitted" committed failed
             submitted)
        :: (recovery_checks @ bank_checks built))
  in
  let peak_rss_mb = peak_rss_mb () in
  (* A set-up of a few milliseconds is repeated, after the run so that its
     garbage does not count towards peak RSS, until the set-ups fill half a
     second; their median is then steady. *)
  let fill_s = match size with Full -> 0.5 | Smoke -> 0. in
  let rec set_up_again durations =
    if List.fold_left ( +. ) 0. durations >= fill_s then durations
    else
      let tracer, _ = set_up () in
      set_up_again (Tracer.seconds tracer "setup" :: durations)
  in
  let setup_durations = set_up_again [ Tracer.seconds tracer "setup" ] in
  let latency = Metrics.read_sample (Cluster.metrics cluster) "encompass.tx_latency_ms" in
  let tx_per_sec =
    match (!window_start, !window_end) with
    | Some (t0, c0), Some (t1, c1) when t1 > t0 ->
        float_of_int (c1 - c0) /. Sim_time.to_seconds_float (t1 - t0)
    | _ ->
        let elapsed = Option.value !settled_at ~default:(Engine.now engine) - started in
        float_of_int committed /. Sim_time.to_seconds_float elapsed
  in
  let metrics =
    [
      ("tx_per_sec", tx_per_sec);
      ("latency_p50_ms", Metrics.percentile latency 0.5);
      ("latency_p99_ms", Metrics.percentile latency 0.99);
      ("failed_frac", float_of_int failed /. float_of_int submitted);
    ]
    @ (match recovery with
      | Some r -> [ ("recovery_ms", r.Layers.recovery_ms) ]
      | None -> [])
    @ [
        ("setup_s", Stats.median setup_durations);
        ( "run_s",
          Tracer.seconds tracer "sim.run" +. Tracer.seconds tracer "tmf.rollforward" );
        ("peak_rss_mb", peak_rss_mb);
      ]
  in
  {
    workload = w.name;
    seed;
    run_id = Tracer.run_id tracer;
    submitted;
    committed;
    failed;
    input_digest = Digest.to_hex (Digest.string (Buffer.contents inputs));
    latency_samples = Metrics.sample_count latency;
    metrics;
    layers =
      Layers.derive cluster ~tracer ~base ~final ~committed
        ~gauges:(if traced then Some gauges else None)
        ~recovery;
    checks;
    spans = Tracer.spans tracer;
  }

let sim_metrics outcome =
  List.filter
    (fun (name, _) ->
      List.exists (fun (n, _, clock) -> n = name && clock = Sim) end_to_end)
    outcome.metrics
