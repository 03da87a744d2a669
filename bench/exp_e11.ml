(* E11 — safety of the distributed commit protocol under partition.

   A two-node transfer is run many times with the inter-node line cut at a
   different instant each time, sweeping across the whole transaction
   lifetime: before the work reaches the remote node, during it, around the
   phase-one vote, and after the commit record. Every run is classified;
   atomicity must hold in all of them. One scripted scenario then
   demonstrates the paper's manual override: a participant cut off after
   its affirmative vote holds its locks until the operator imposes the
   disposition learned from the home node. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Bench_util

let build () =
  let cluster, spec =
    Workload.build_bank ~seed:79 ~nodes:2 ~accounts:100
      ~servers:[ `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:1
      ~program:Workload.transfer_program ()
  in
  (cluster, tcp, spec)

let classify cluster =
  let debit = Workload.account_balance cluster ~account:10 in
  let credit = Workload.account_balance cluster ~account:80 in
  match (debit, credit) with
  | Some 900, Some 1_100 -> `Committed
  | Some 1_000, Some 1_000 -> `Aborted
  | _ -> `TORN

let run_once ~cut_ms =
  let cluster, tcp, _spec = build () in
  let engine = Cluster.engine cluster in
  ignore
    (Engine.schedule_after engine (Sim_time.milliseconds cut_ms) (fun () ->
         Net.fail_link (Cluster.net cluster) 1 2));
  Tcp.submit tcp ~terminal:0
    (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
  ignore
    (Engine.schedule_after engine (Sim_time.seconds 120) (fun () ->
         Net.restore_link (Cluster.net cluster) 1 2));
  Cluster.run ~until:(Sim_time.minutes 6) cluster;
  record_registry ~label:(Printf.sprintf "cut=%dms" cut_ms) (Cluster.metrics cluster);
  let stuck_locks =
    Tandem_lock.Lock_table.locked_count
      (Discprocess.lock_table (Cluster.discprocess cluster ~node:2 ~volume:"$DATA2"))
  in
  (classify cluster, stuck_locks)

let run () =
  heading "E11 — partition timing sweep over the distributed commit";
  claim
    "any participating node may unilaterally abort before voting; after an \
     affirmative phase-one vote its locks are held until the disposition \
     arrives; the decision is uniform across nodes in every case";
  let outcomes = Hashtbl.create 8 in
  let torn = ref 0 and residual_locks = ref 0 in
  let cuts = [ 5; 20; 40; 60; 80; 100; 120; 150; 200; 400 ] in
  List.iter
    (fun cut_ms ->
      let outcome, stuck = run_once ~cut_ms in
      if stuck > 0 then incr residual_locks;
      let label =
        match outcome with
        | `Committed -> "committed everywhere"
        | `Aborted -> "aborted everywhere"
        | `TORN ->
            incr torn;
            "TORN (atomicity violated)"
      in
      Hashtbl.replace outcomes label
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes label)))
    cuts;
  let rows =
    Hashtbl.fold (fun label count acc -> [ label; string_of_int count ] :: acc)
      outcomes []
  in
  print_table ~columns:[ "outcome (after heal)"; "runs" ] rows;
  observed
    "%d runs, %d torn outcomes, %d runs with locks still held after healing \
     — the disposition always became uniform once safe-delivery got through"
    (List.length cuts) !torn !residual_locks;

  (* The manual override: partition just after the vote window, do NOT
     heal; an operator queries the home node's disposition and forces it at
     the cut-off participant, releasing its locks. The vote window is a few
     milliseconds wide, so sweep cut instants until one latches. *)
  let latch cut_ms =
    let cluster, tcp, _ = build () in
    let engine = Cluster.engine cluster in
    Tcp.submit tcp ~terminal:0
      (Workload.transfer_input_between ~from_account:10 ~to_account:80 ~amount:100);
    ignore
      (Engine.schedule_after engine (Sim_time.milliseconds cut_ms) (fun () ->
           Net.fail_link (Cluster.net cluster) 1 2));
    Cluster.run ~until:(Sim_time.seconds 30) cluster;
    let dp2 = Cluster.discprocess cluster ~node:2 ~volume:"$DATA2" in
    let held = Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2) in
    if held > 0 then Some (cluster, tcp, engine, dp2, held) else None
  in
  let rec search = function
    | [] -> None
    | cut_ms :: rest -> (
        match latch cut_ms with Some hit -> Some hit | None -> search rest)
  in
  match search [ 350; 330; 310; 370; 290; 390; 270; 410; 250; 430 ] with
  | None ->
      observed
        "no cut instant latched locks at node 2 in this sweep; the timing \
         sweep above covers the window statistically"
  | Some (cluster, _tcp, engine, dp2, before) -> begin
    observed
      "scripted in-doubt case: node 2 voted yes, then lost the line — %d lock(s) held"
      before;
    (* The operator reads the home disposition off-line and forces it. *)
    let home_disposition =
      Tmf.disposition (Cluster.tmf cluster) ~node:1
        (Option.get
           (Tmf.Transid.of_string
              (fst (List.hd (Tandem_audit.Monitor_trail.entries
                               (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.monitor)))))
    in
    let transid =
      Option.get
        (Tmf.Transid.of_string
           (fst (List.hd (Tandem_audit.Monitor_trail.entries
                            (Tmf.node_state (Cluster.tmf cluster) 1).Tmf.Tmf_state.monitor))))
    in
    Cluster.run_client cluster ~node:2 ~cpu:0 (fun process ->
        Tmf.Tmp.force_disposition (Tmf.tmp (Cluster.tmf cluster) 2) ~self:process
          transid
          (Option.value ~default:Tandem_audit.Monitor_trail.Committed home_disposition));
    Cluster.run ~until:(Sim_time.add (Engine.now engine) (Sim_time.seconds 10)) cluster;
    observed
      "after the operator forced the home node's disposition at node 2: %d lock(s) held"
      (Tandem_lock.Lock_table.locked_count (Discprocess.lock_table dp2))
  end
