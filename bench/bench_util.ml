(* Shared machinery for the experiment harness: the TCPs of the standard
   banks, closed-loop load generation, bucketed throughput sampling and
   table printing. Every bank is booted by [Workload.build_bank]; the
   builders here add only what an experiment drives it with. *)

open Tandem_sim
open Tandem_encompass

(* ------------------------------------------------------------------ *)
(* Table printing *)

let heading title = Printf.printf "\n### %s\n\n" title

let claim text = Printf.printf "paper: %s\n" text

let observed fmt = Printf.ksprintf (fun s -> Printf.printf "observed: %s\n" s) fmt

let print_table ~columns rows =
  let widths =
    List.mapi
      (fun i column ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length column) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let f1 value = Printf.sprintf "%.1f" value

let f2 value = Printf.sprintf "%.2f" value

(* ------------------------------------------------------------------ *)
(* Machine-readable results

   Each experiment snapshots metrics registries under a label; a full run
   of the paper experiments writes one digest per experiment to the
   committed BENCH_results.json and every registry to BENCH_registries.json
   (both schemas documented in docs/OBSERVABILITY.md). *)

type recorded = { experiment : string; label : string; metrics : Json.t }

let recorded_results : recorded list ref = ref [] (* newest first *)

(* The recorder is shared by every experiment; experiments that fan their
   points out on the domain pool record from worker domains, so the push
   must be atomic. Deterministic JSON output still requires callers to
   record in task order — parallelized experiments return per-task
   registries from the pool and record them from the main domain. *)
let recorded_mutex = Mutex.create ()

let current_experiment = ref "unassigned"

let set_experiment id = current_experiment := id

let push recorded =
  Mutex.lock recorded_mutex;
  recorded_results := recorded :: !recorded_results;
  Mutex.unlock recorded_mutex

let record_registry ?(label = "") metrics =
  push
    { experiment = !current_experiment; label; metrics = Metrics.to_json metrics }

let record_spans ?(label = "") spans =
  push
    {
      experiment = !current_experiment;
      label;
      metrics = Json.Obj [ ("spans", Span.summary_json spans) ];
    }

let entry_json { experiment; label; metrics } =
  Json.Obj
    [
      ("experiment", Json.String experiment);
      ("label", Json.String label);
      ("metrics", metrics);
    ]

(* Quick mode (TANDEM_BENCH_QUICK=1): the wall-clock experiments (engine,
   parallel) shrink to a smoke run that walks the same code path; its
   estimates are meaningless. *)
let quick_mode () =
  match Sys.getenv_opt "TANDEM_BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* The one writer behind every JSON file the harness leaves in the cwd;
   [what] names the content on the confirmation line. *)
let write_json ?(note = "") ~what path json =
  match open_out path with
  | out ->
      output_string out (Json.to_string ~pretty:true json);
      output_string out "\n";
      close_out out;
      Printf.printf "\n%s written to %s%s\n" what path note
  | exception Sys_error message ->
      Printf.eprintf "cannot write %s: %s\n" path message

(* Every claim a BENCH file carries is checked where it is computed, on the
   typed rows, before the file is written: a failed [require] stops the
   run with a non-zero exit. *)
let require ok fmt =
  Printf.ksprintf (fun message -> if not ok then failwith message) fmt

(* The host a wall-clock BENCH file was measured on. *)
let host_json () =
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

(* The one wall-clock timer of the harness: [f]'s result and the seconds
   it took. *)
let time f =
  let started = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. started)

(* [experiments]' registries: every one, in record order, to
   [registries_path]; and to [digests_path] one MD5 per experiment over the
   compact JSON text of its own entries, in record order, so any byte that
   changes in the full file changes its experiment's digest. *)
let write_results ~experiments ~digests_path ~registries_path =
  let recorded = List.rev !recorded_results in
  write_json ~what:"registries" registries_path
    ~note:(Printf.sprintf " (%d registries)" (List.length recorded))
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-results/1");
         ("experiments", Json.List (List.map entry_json recorded));
       ]);
  let digest experiment =
    let own = List.filter (fun r -> r.experiment = experiment) recorded in
    Json.Obj
      [
        ("experiment", Json.String experiment);
        ("registries", Json.Int (List.length own));
        ( "md5",
          Json.String
            (Digest.to_hex
               (Digest.string
                  (Json.to_string (Json.List (List.map entry_json own))))) );
      ]
  in
  write_json ~what:"registry digests" digests_path
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-digests/1");
         ("experiments", Json.List (List.map digest experiments));
       ])

(* ------------------------------------------------------------------ *)
(* Domain-parallel point fan-out

   Every bench point builds its own sealed cluster, so a batch of points
   is embarrassingly parallel. The job count is process-wide (set once
   from --jobs / TANDEM_JOBS by bench/main.ml); at the default of 1 the
   pool never spawns a domain and runs are byte-for-byte the serial
   harness. *)

let jobs = ref 1

let set_jobs n = jobs := max 1 n

let pool_jobs () = !jobs

let pool_map f items = Domain_pool.map ~jobs:!jobs f items

(* ------------------------------------------------------------------ *)
(* Standard banks *)

type bank = {
  cluster : Cluster.t;
  tcps : Tcp.t list;
  spec : Workload.bank_spec;
  rng : Rng.t;
}

(* One node, [volumes] data volumes sharing the account file by key range,
   BANK and TRANSFER classes of [bank_servers] each, and [tcp_count] TCPs
   of [terminals] each with their pairs rotating over the processors. *)
let make_bank ?(seed = 42) ?(cpus = 4) ?(volumes = 1) ?(tcp_count = 1)
    ?(terminals = 8) ?(bank_servers = 2) ?(accounts = 500) ?config () =
  let cluster, spec =
    Workload.build_bank ~seed ?config ~cpus
      ~volumes:(List.init volumes (fun _ -> 1))
      ~accounts
      ~tellers:(10 * max 1 (cpus / 2))
      ~branches:(5 * max 1 (cpus / 2))
      ~servers:[ `Bank bank_servers; `Transfer bank_servers ]
      ()
  in
  let tcps =
    List.init tcp_count (fun i ->
        Cluster.add_tcp cluster ~node:1
          ~name:(Printf.sprintf "$TCP%d" (i + 1))
          ~primary_cpu:(i mod cpus)
          ~backup_cpu:((i + 1) mod cpus)
          ~terminals ~program:Workload.debit_credit_program ())
  in
  { cluster; tcps; spec; rng = Rng.split (Engine.rng (Cluster.engine cluster)) }

(* Closed-loop load: pre-queue [per_terminal] inputs on every terminal so
   each terminal always has work. *)
let queue_debit_credit ?skew bank ~per_terminal =
  List.iter
    (fun tcp ->
      for terminal = 0 to Tcp.terminal_count tcp - 1 do
        for _ = 1 to per_terminal do
          Tcp.submit tcp ~terminal
            (Workload.debit_credit_input bank.rng bank.spec ?skew ())
        done
      done)
    bank.tcps

let total_completed bank = List.fold_left (fun acc tcp -> acc + Tcp.completed tcp) 0 bank.tcps

let total_failures bank = List.fold_left (fun acc tcp -> acc + Tcp.failures tcp) 0 bank.tcps

let total_restarts bank = List.fold_left (fun acc tcp -> acc + Tcp.restarts tcp) 0 bank.tcps

(* The three-node bank of the closed-loop ablations: a third of the
   accounts on each node, every server class on node 1, and one TCP of
   [terminals] per node so that commit homes (and each transaction's home
   TMP and monitor trail) spread across the cluster. *)
let three_node_bank ~seed ~config ?cache_capacity ~accounts ~server_classes
    ~program ~terminals () =
  let cluster, spec =
    Workload.build_bank ~seed ~config ~nodes:3 ?cache_capacity ~accounts
      ~initial_balance:10_000 ~servers:server_classes ()
  in
  let tcps =
    List.map
      (fun node ->
        Cluster.add_tcp cluster ~node
          ~name:(Printf.sprintf "$TCP%d" node)
          ~terminals ~program ())
      [ 1; 2; 3 ]
  in
  (cluster, spec, tcps)

(* ------------------------------------------------------------------ *)
(* Closed-loop runs *)

let tx_per_second completed span =
  float_of_int completed /. Sim_time.to_seconds_float span

type settled = {
  committed : int;
  submitted : int;
  elapsed : Sim_time.span;
  tps : float; (* committed per second of [elapsed] *)
  metrics : Metrics.t;
}

(* Run the cluster to [until] while a 10 ms poll watches for the instant
   every one of the [submitted] inputs has reached a final disposition
   (committed, failed, or aborted by its program). Elapsed is that settle
   instant, not the run bound: watchdog and retry machinery keep the event
   queue alive long after the workload drains. *)
let drain ~until cluster tcps ~submitted =
  let sum_over f = List.fold_left (fun acc tcp -> acc + f tcp) 0 tcps in
  let engine = Cluster.engine cluster in
  let finish_time = ref None in
  let rec poll () =
    let settled =
      sum_over Tcp.completed + sum_over Tcp.failures
      + sum_over Tcp.program_aborts
    in
    if settled >= submitted then finish_time := Some (Engine.now engine)
    else ignore (Engine.schedule_after engine (Sim_time.milliseconds 10) poll)
  in
  ignore (Engine.schedule_after engine (Sim_time.milliseconds 10) poll);
  Cluster.run ~until cluster;
  let elapsed =
    match !finish_time with Some t -> t | None -> Engine.now engine
  in
  let committed = sum_over Tcp.completed in
  {
    committed;
    submitted;
    elapsed;
    tps = tx_per_second committed elapsed;
    metrics = Cluster.metrics cluster;
  }

(* Deal [inputs] round-robin: input i goes to TCP [i mod n], terminal
   [(i / n) mod terminals]; then drain within a 30-minute bound. *)
let run_closed_loop cluster tcps ~terminals inputs =
  let tcp_count = List.length tcps in
  List.iteri
    (fun i input ->
      Tcp.submit (List.nth tcps (i mod tcp_count))
        ~terminal:(i / tcp_count mod terminals)
        input)
    inputs;
  drain ~until:(Sim_time.minutes 30) cluster tcps
    ~submitted:(List.length inputs)

let mean_latency_ms metrics =
  Metrics.mean (Metrics.read_sample metrics "encompass.tx_latency_ms")

(* Committed-transaction counts per bucket over a run window. *)
let bucketed_throughput ~engine ~bucket ~buckets count_now =
  let samples = Array.make buckets 0 in
  let previous = ref (count_now ()) in
  for i = 0 to buckets - 1 do
    ignore
      (Engine.schedule_after engine ((i + 1) * bucket) (fun () ->
           let current = count_now () in
           samples.(i) <- current - !previous;
           previous := current))
  done;
  samples
