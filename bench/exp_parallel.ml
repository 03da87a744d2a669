(* PARALLEL — the domain-pool harness itself: wall-clock vs --jobs.

   Three task batches, each a set of sealed independent simulations, run
   at --jobs 1/2/4/8 on the Domain_pool:

   - chaos-quick-matrix: every chaos scenario at several seeds (the CI
     matrix), digesting each run's byte-stable fingerprint;
   - scaleout-batch: a batch of scale-out bench points (fresh sharded
     bank per point);
   - recovery-batch: crash-and-recover (point, replay-mode) arms from
     the recovery ablation.

   Every row carries a fingerprint-equality bit against the jobs=1 run of
   the same batch: the determinism contract (docs/FAULT_MODEL.md) is a
   cross-domain property, so more domains may only move wall-clock, never
   a result byte, and a diverged row fails the run. The host core count is
   printed alongside: with fewer cores than domains, the domains timeslice
   and the speedup column stays flat or falls. Nothing is written to disc;
   quick mode (TANDEM_BENCH_QUICK=1) runs a shrunken sweep. *)

open Tandem_sim
open Bench_util

let jobs_sweep = [ 1; 2; 4; 8 ]

(* A batch digests every task's observable result into one string; equal
   digests across job counts certify that parallelism changed nothing but
   wall-clock. *)
type batch = {
  b_name : string;
  b_tasks : int;
  b_run : jobs:int -> string;
}

let chaos_batch ~quick =
  let seeds = if quick then [ 42 ] else [ 42; 1981; 7 ] in
  let tasks =
    List.concat_map
      (fun s -> List.map (fun seed -> (s, seed)) seeds)
      Tandem_chaos.Scenarios.all
  in
  {
    b_name = "chaos-quick-matrix";
    b_tasks = List.length tasks;
    b_run =
      (fun ~jobs ->
        Domain_pool.map ~jobs
          (fun (s, seed) ->
            Tandem_chaos.Scenario.fingerprint
              (Tandem_chaos.Scenario.run s ~seed ~quick:true))
          tasks
        |> String.concat "\n");
  }

let scaleout_batch ~quick =
  let accounts = if quick then 20_000 else 50_000 in
  let per_terminal = if quick then 1 else 2 in
  let node_points = if quick then [ 2; 2 ] else [ 2; 3; 4; 2; 3; 4 ] in
  {
    b_name = "scaleout-batch";
    b_tasks = List.length node_points;
    b_run =
      (fun ~jobs ->
        Domain_pool.map ~jobs
          (fun nodes ->
            let point =
              Exp_scaleout.measure ~accounts ~nodes ~terminals_per_node:8
                ~per_terminal
            in
            Json.to_string (Exp_scaleout.json_of_point point))
          node_points
        |> String.concat "\n");
  }

let recovery_batch ~quick =
  let accounts = (if quick then 1_000 else 2_000) * Exp_recovery.nodes in
  let points = if quick then [ (4, 300) ] else [ (4, 300); (8, 500) ] in
  let arms =
    List.concat_map
      (fun point -> [ (point, `Sequential); (point, `Chains 8) ])
      points
  in
  {
    b_name = "recovery-batch";
    b_tasks = List.length arms;
    b_run =
      (fun ~jobs ->
        Domain_pool.map ~jobs
          (fun ((inputs, crash_ms), parallelism) ->
            let m =
              Exp_recovery.measure ~parallelism ~accounts ~terminals:2
                ~inputs ~crash_ms
            in
            Printf.sprintf "%s recovery=%.3fms chains=%d"
              (Exp_recovery.stats_repr m.Exp_recovery.stats)
              m.Exp_recovery.recovery_ms
              m.Exp_recovery.chains)
          arms
        |> String.concat "\n");
  }

type row = { r_jobs : int; r_wall_s : float; r_equal : bool }

let run_rows batch =
  let baseline = ref "" in
  List.map
    (fun jobs ->
      let digest, wall_s = time (fun () -> batch.b_run ~jobs) in
      if jobs = 1 then baseline := digest;
      (* Level the heap between sweeps so a later jobs level never pays
         the earlier levels' garbage. *)
      Gc.compact ();
      { r_jobs = jobs; r_wall_s = wall_s; r_equal = digest = !baseline })
    jobs_sweep

let serial_wall rows =
  match List.find_opt (fun r -> r.r_jobs = 1) rows with
  | Some r -> r.r_wall_s
  | None -> Float.nan

let run () =
  let quick = quick_mode () in
  let host_cores = Domain.recommended_domain_count () in
  heading "PARALLEL — domain-pool harness wall-clock vs --jobs";
  claim
    "every bench point, chaos run and recovery arm is a sealed simulation, \
     so the harness fans them out on OCaml 5 domains: wall-clock drops \
     with --jobs while every fingerprint stays byte-identical to the \
     serial run";
  Printf.printf "\nhost cores (Domain.recommended_domain_count): %d\n"
    host_cores;
  if host_cores < List.fold_left max 1 jobs_sweep then
    Printf.printf
      "note: fewer cores than the largest jobs level — domains timeslice, \
       so speedups cap at ~%dx here (fingerprint equality still binds)\n"
      host_cores;
  let batches =
    [ chaos_batch ~quick; scaleout_batch ~quick; recovery_batch ~quick ]
  in
  let results =
    List.map
      (fun batch ->
        Printf.printf "\n%s: %d tasks\n%!" batch.b_name batch.b_tasks;
        let rows = run_rows batch in
        print_table
          ~columns:[ "jobs"; "wall s"; "speedup"; "fingerprints" ]
          (List.map
             (fun r ->
               [
                 string_of_int r.r_jobs;
                 f2 r.r_wall_s;
                 f2 (serial_wall rows /. r.r_wall_s) ^ "x";
                 (if r.r_equal then "identical" else "DIVERGED");
               ])
             rows);
        (batch, rows))
      batches
  in
  let diverged =
    List.exists (fun (_, rows) -> List.exists (fun r -> not r.r_equal) rows)
      results
  in
  if diverged then failwith "exp_parallel: fingerprints diverged across jobs";
  let fastest rows =
    List.fold_left
      (fun best r -> if r.r_wall_s < best.r_wall_s then r else best)
      (List.hd rows) rows
  in
  observed
    "on %d cores the fastest --jobs level is %s; every row's digest equals \
     the serial run's"
    host_cores
    (String.concat ", "
       (List.map
          (fun (batch, rows) ->
            let r = fastest rows in
            Printf.sprintf "%d for %s (%.2fx)" r.r_jobs batch.b_name
              (serial_wall rows /. r.r_wall_s))
          results))
