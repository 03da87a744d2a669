open Tandem_sim
open Tandem_encompass

type check = { name : string; passed : bool; detail : string }

type verdict = { checks : check list; passed : bool }

let verdict_to_string v =
  v.checks
  |> List.map (fun (c : check) ->
         Printf.sprintf "%s %s: %s" (if c.passed then "PASS" else "FAIL") c.name
           c.detail)
  |> String.concat "\n"

let finish metrics (checks : check list) =
  List.iter
    (fun (c : check) ->
      Metrics.incr
        (Metrics.counter metrics
           (if c.passed then "chaos.invariant_checks_passed"
            else "chaos.invariant_checks_failed")))
    checks;
  { checks; passed = List.for_all (fun (c : check) -> c.passed) checks }

(* ------------------------------------------------------------------ *)
(* Shared structural invariants: locks, registries, mirrors, links.   *)

let locks_drained cluster =
  let held, waiting =
    List.fold_left
      (fun (held, waiting) dp ->
        let table = Discprocess.lock_table dp in
        ( held + Tandem_lock.Lock_table.locked_count table,
          waiting + Tandem_lock.Lock_table.waiting_count table ))
      (0, 0)
      (Cluster.all_discprocesses cluster)
  in
  {
    name = "locks-drained";
    passed = held = 0 && waiting = 0;
    detail = Printf.sprintf "%d locks held, %d waiters" held waiting;
  }

let registry_drained cluster =
  let live =
    List.fold_left
      (fun acc node ->
        acc
        + Tbl.String.length
            (Tmf.node_state (Cluster.tmf cluster) node).Tmf.Tmf_state.registry)
      0 (Cluster.node_ids cluster)
  in
  {
    name = "registry-drained";
    passed = live = 0;
    detail = Printf.sprintf "%d live transids" live;
  }

let mirrors_converged cluster =
  let bad =
    List.filter
      (fun v ->
        not
          (Tandem_disk.Volume.available v
          && Tandem_disk.Volume.mirrors_converged v
          && Tandem_disk.Volume.controllers_up_count v = 2))
      (Cluster.volumes cluster)
  in
  {
    name = "mirrors-converged";
    passed = bad = [];
    detail =
      (match bad with
      | [] ->
          Printf.sprintf "%d volumes fully mirrored"
            (List.length (Cluster.volumes cluster))
      | _ ->
          "degraded: "
          ^ String.concat ", " (List.map Tandem_disk.Volume.name bad));
  }

let network_healed cluster =
  let healed = Tandem_os.Net.all_links_up (Cluster.net cluster) in
  {
    name = "network-healed";
    passed = healed;
    detail = (if healed then "all links up" else "failed links remain");
  }

let structural cluster =
  [
    locks_drained cluster;
    registry_drained cluster;
    mirrors_converged cluster;
    network_healed cluster;
  ]

(* ------------------------------------------------------------------ *)

let bank cluster ~spec ~initial_total ?debit_credit_completed () =
  let total = Workload.total_balance cluster spec in
  let delta_sum = Workload.committed_delta_sum cluster spec in
  let expected = initial_total + delta_sum in
  let funds =
    {
      name = "funds-conserved";
      passed = total = expected;
      detail =
        Printf.sprintf "balance total %d, expected %d (initial %d + deltas %d)"
          total expected initial_total delta_sum;
    }
  in
  let durable =
    match debit_credit_completed with
    | None -> []
    | Some completed ->
        let history = Workload.history_count cluster spec in
        [
          {
            name = "committed-durable";
            passed = history = completed;
            detail =
              Printf.sprintf "%d history records for %d committed debit-credits"
                history completed;
          };
        ]
  in
  finish (Cluster.metrics cluster) ((funds :: durable) @ structural cluster)

let mfg t =
  let cluster = Tandem_mfg.Mfg_app.cluster t in
  let divergent = Tandem_mfg.Mfg_app.divergent_items t in
  let converged =
    {
      name = "replicas-converged";
      passed = Tandem_mfg.Mfg_app.replicas_converged t;
      detail = Printf.sprintf "%d divergent items" divergent;
    }
  in
  let backlog =
    List.fold_left
      (fun acc (plant, _) -> acc + Tandem_mfg.Mfg_app.suspense_backlog t plant)
      0 Tandem_mfg.Mfg_app.plant_names
  in
  let drained =
    {
      name = "suspense-drained";
      passed = backlog = 0;
      detail = Printf.sprintf "%d deferred updates queued" backlog;
    }
  in
  finish (Cluster.metrics cluster) (converged :: drained :: structural cluster)
