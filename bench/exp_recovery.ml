(* RECOVERY — dependency-parallel ROLLFORWARD vs the sequential baseline.

   An eight-node bank runs a mixed debit-credit + transfer load; one
   account-partition node is killed mid-load at several points, giving
   audit trails of increasing length to replay. Each trail is recovered
   twice from identically-seeded clusters by the one ROLLFORWARD replay
   engine — once with `rollforward_parallelism=seq` (each trail one chain
   in audit order, on one worker, no read-ahead) and once with `chains:8`
   (each trail's dependency chains on eight workers, with read-ahead) —
   and the recovery time (simulated, as [recover] records it in
   tmf.recovery_ms) is compared. The parallel replay wins by overlapping
   the mirrored-drive reads of independent chains and by resolving
   transaction verdicts (network RPCs to the surviving home node)
   concurrently instead of serially.

   A run rewrites BENCH_recovery.json in the cwd; `dune runtest` reruns it
   and diffs the result against the committed copy. *)

open Tandem_sim
open Tandem_encompass
open Tandem_os
open Bench_util

let baseline_commit =
  "baseline 1d12ab5: rollforward_parallelism=seq = the seq column"

let nodes = 8

let crash_node = 5 (* a pure account-partition node, not the system home *)

let workers = 8

let config_of parallelism =
  { Hw_config.default with Hw_config.rollforward_parallelism = parallelism }

(* [accounts] is big enough per node that the replayed working set does
   not fit the 256-block disc-process cache: the replay is then genuinely
   I/O-bound, which is what the ablation prices. *)
let make_cluster ~parallelism ~accounts ~terminals ~inputs =
  let cluster, spec =
    Workload.build_bank ~seed:1981 ~config:(config_of parallelism) ~nodes
      ~accounts ~tellers:(5 * nodes) ~branches:(2 * nodes)
      ~servers:[ `Bank 4; `Transfer 4 ] ()
  in
  let input_rng = Rng.create ~seed:7919 in
  for id = 1 to nodes do
    let tcp =
      Cluster.add_tcp cluster ~node:id
        ~name:(Printf.sprintf "$TCP%d" id)
        ~primary_cpu:0 ~backup_cpu:1 ~terminals
        ~program:Workload.transfer_program ()
    in
    for terminal = 0 to terminals - 1 do
      for _ = 1 to inputs do
        Tcp.submit tcp ~terminal (Workload.transfer_input input_rng spec ())
      done
    done
  done;
  cluster

let stats_repr = Format.asprintf "%a" Tmf.Rollforward.pp_stats

type measurement = {
  stats : Tmf.Rollforward.stats;
  recovery_ms : float;
  chains : int;
}

(* One crash-and-recover run. [crash_ms] cuts the load mid-flight; the
   post-crash flail is drained to quiescence before recovery so both
   replay modes recover the identical frozen trail. *)
let measure ~parallelism ~accounts ~terminals ~inputs ~crash_ms =
  let cluster = make_cluster ~parallelism ~accounts ~terminals ~inputs in
  (* Warm-up traffic, then the archive the recovery will restore from. *)
  Cluster.run ~until:(Sim_time.milliseconds 100) cluster;
  let archive = Cluster.take_archive cluster ~node:crash_node in
  Cluster.run ~until:(Sim_time.milliseconds crash_ms) cluster;
  Cluster.total_node_failure cluster ~node:crash_node;
  Cluster.run cluster;
  let stats = Cluster.rollforward_node cluster ~node:crash_node archive in
  let metrics = Cluster.metrics cluster in
  (* [recover] stamps its own duration, so the figure excludes the engine
     pump slices around it. *)
  let recovery_ms =
    Metrics.histogram_sum (Metrics.read_histogram metrics "tmf.recovery_ms")
  in
  let chains = Metrics.read_counter metrics "tmf.recovery_chains" in
  { stats; recovery_ms; chains }

type point = {
  label : string;
  trail_images : int;
  transactions_redone : int;
  point_chains : int;
  seq_ms : float;
  par_ms : float;
  replay_equal : bool;
}

let point_of ~crash_ms seq par =
  {
    label = Printf.sprintf "crash@%dms" crash_ms;
    trail_images = seq.stats.Tmf.Rollforward.images_scanned;
    transactions_redone = seq.stats.Tmf.Rollforward.transactions_redone;
    point_chains = par.chains;
    seq_ms = seq.recovery_ms;
    par_ms = par.recovery_ms;
    replay_equal = stats_repr seq.stats = stats_repr par.stats;
  }

(* Every (point, replay-mode) arm is an independent crash-and-recover
   cluster, so the whole batch fans out on the domain pool (--jobs /
   TANDEM_JOBS; serial by default) and the seq/par measurements are paired
   back up afterwards. *)
let run_points ~accounts ~terminals points =
  let arms =
    List.concat_map
      (fun point -> [ (point, `Sequential); (point, `Chains workers) ])
      points
  in
  let measures =
    pool_map
      (fun ((inputs, crash_ms), parallelism) ->
        measure ~parallelism ~accounts ~terminals ~inputs ~crash_ms)
      arms
  in
  let rec pair = function
    | seq :: par :: rest -> (seq, par) :: pair rest
    | [ _ ] | [] -> []
  in
  List.map2
    (fun (_, crash_ms) (seq, par) -> point_of ~crash_ms seq par)
    points (pair measures)

let write_json points =
  let point p =
    Json.Obj
      [
        ("label", Json.String p.label);
        ("trail_images", Json.Int p.trail_images);
        ("transactions_redone", Json.Int p.transactions_redone);
        ("chains", Json.Int p.point_chains);
        ("seq_recovery_ms", Json.Float p.seq_ms);
        ("chains_recovery_ms", Json.Float p.par_ms);
        ("speedup", Json.Float (p.seq_ms /. p.par_ms));
        ("replay_equal", Json.Bool p.replay_equal);
      ]
  in
  (* The sequential baseline stays next to the chain-parallel numbers. *)
  require
    (String.starts_with ~prefix:"baseline" baseline_commit)
    "recovery: baseline_commit lacks its baseline stamp";
  require
    (List.length points >= 2)
    "recovery: %d < 2 trail-size points" (List.length points);
  List.iter
    (fun p -> require p.replay_equal "recovery: %s replayed differently" p.label)
    points;
  let largest =
    List.fold_left
      (fun a b -> if b.trail_images > a.trail_images then b else a)
      (List.hd points) points
  in
  require
    (largest.par_ms < largest.seq_ms)
    "recovery: chains no faster than seq at the largest trail (%s)"
    largest.label;
  Bench_util.write_json ~what:"recovery ablation" "BENCH_recovery.json"
    (Json.Obj
       [
         ("schema", Json.String "tandem-bench-recovery/1");
         ("baseline_commit", Json.String baseline_commit);
         ( "config",
           Json.Obj
             [
               ("nodes", Json.Int nodes);
               ("crash_node", Json.Int crash_node);
               ("workers", Json.Int workers);
             ] );
         ("points", Json.List (List.map point points));
       ])

let run () =
  heading "RECOVERY — dependency-parallel ROLLFORWARD vs sequential replay";
  claim
    "partitioning the post-archive redo log into dependency chains and \
     replaying independent chains on concurrent fibers shortens the \
     recovery window that gates continuous operation";
  let points = [ (8, 400); (16, 800); (32, 1600); (64, 3200) ] in
  let accounts = 8_000 * nodes in
  let terminals = 4 in
  let rows = run_points ~accounts ~terminals points in
  print_table
    ~columns:
      [ "crash point"; "trail images"; "tx redone"; "chains"; "seq ms";
        "chains:8 ms"; "speedup"; "replay equal" ]
    (List.map
       (fun p ->
         [
           p.label;
           string_of_int p.trail_images;
           string_of_int p.transactions_redone;
           string_of_int p.point_chains;
           f1 p.seq_ms;
           f1 p.par_ms;
           f2 (p.seq_ms /. p.par_ms) ^ "x";
           (if p.replay_equal then "yes" else "NO");
         ])
       rows);
  write_json rows;
  observed
    "independent chains overlap their mirrored-drive reads and verdict \
     lookups; the win grows with the trail length while the replayed \
     state stays identical to the sequential baseline"
