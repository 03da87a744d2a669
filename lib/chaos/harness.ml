open Tandem_sim
open Tandem_encompass

type bank = {
  cluster : Cluster.t;
  spec : Workload.bank_spec;
  debit_credit_tcps : Tcp.t list;
  other_tcps : Tcp.t list;
  initial_total : int;
}

let build_bank ?(nodes = 1) ?(cpus = 4) ?transfers ?(inquiries = false)
    ?config ~seed ~quick () =
  let transfers = Option.value transfers ~default:(nodes > 1) in
  (* The full mesh makes a single link failure exercise re-routing on
     three or more nodes and isolate exactly one node on two. *)
  let accounts_per_node = if quick then 100 else 200 in
  let cluster, spec =
    Workload.build_bank ~seed ?config ~nodes ~cpus
      ~accounts:(accounts_per_node * nodes)
      ~servers:[ `Bank 3; `Transfer 2; `Inquiry 2 ]
      ()
  in
  let terminals = if quick then 4 else 8 in
  let inputs = if quick then 6 else 20 in
  let input_rng = Rng.create ~seed:(seed + 7919) in
  let load tcp make_input =
    for terminal = 0 to terminals - 1 do
      for _ = 1 to inputs do
        Tcp.submit tcp ~terminal (make_input ())
      done
    done
  in
  let debit_credit_tcps =
    List.map
      (fun id ->
        let tcp =
          Cluster.add_tcp cluster ~node:id
            ~name:(Printf.sprintf "$TCPDC%d" id)
            ~primary_cpu:0 ~backup_cpu:1 ~terminals
            ~program:Workload.debit_credit_program ()
        in
        load tcp (fun () -> Workload.debit_credit_input input_rng spec ());
        tcp)
      (Cluster.node_ids cluster)
  in
  let other_tcps =
    (if transfers then
       let tcp =
         Cluster.add_tcp cluster ~node:1 ~name:"$TCPTR" ~primary_cpu:0
           ~backup_cpu:1 ~terminals ~program:Workload.transfer_program ()
       in
       load tcp (fun () -> Workload.transfer_input input_rng spec ());
       [ tcp ]
     else [])
    @
    if inquiries then
      let tcp =
        Cluster.add_tcp cluster ~node:1 ~name:"$TCPIN" ~primary_cpu:0
          ~backup_cpu:1 ~terminals
          ~program:Workload.balance_inquiry_program ()
      in
      load tcp (fun () -> Workload.balance_inquiry_input input_rng spec ());
      [ tcp ]
    else []
  in
  {
    cluster;
    spec;
    debit_credit_tcps;
    other_tcps;
    initial_total = spec.Workload.accounts * spec.Workload.initial_balance;
  }

let sum f tcps = List.fold_left (fun acc tcp -> acc + f tcp) 0 tcps

let all_tcps bank = bank.debit_credit_tcps @ bank.other_tcps

let committed bank = sum Tcp.completed (all_tcps bank)

let debit_credit_committed bank = sum Tcp.completed bank.debit_credit_tcps

let restarts bank = sum Tcp.restarts (all_tcps bank)

let failures bank = sum Tcp.failures (all_tcps bank)

let run_schedule cluster injector schedule =
  List.iter
    (fun (at_ms, fault) ->
      let target = Sim_time.milliseconds at_ms in
      if Sim_time.compare target (Engine.now (Cluster.engine cluster)) > 0 then
        Cluster.run ~until:target cluster;
      Injector.apply injector fault)
    (Schedule.entries schedule)

let drain cluster = Cluster.run cluster

let check_bank bank =
  Checker.bank bank.cluster ~spec:bank.spec ~initial_total:bank.initial_total
    ~debit_credit_completed:(debit_credit_committed bank) ()

(* ------------------------------------------------------------------ *)
(* Seeded schedule helpers. Quick mode's closed loop is roughly 0.5–2
   simulated seconds of busy traffic; full mode several seconds. Faults
   land inside the busy window so transactions are genuinely in flight. *)

let window ~quick = if quick then (40, 400) else (80, 1500)

let draw_at rng ~quick =
  let lo, hi = window ~quick in
  Rng.int_in_range rng ~lo ~hi:(hi - 1)

let draw_repair_delay rng ~quick =
  if quick then Rng.int_in_range rng ~lo:80 ~hi:250
  else Rng.int_in_range rng ~lo:150 ~hi:600
