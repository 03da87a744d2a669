(* E8 — the broadcast design decision: "transaction state changes are
   broadcast to all processors within a single node ... because of the
   speed and reliability of the interprocessor bus"; across the network
   "only nodes participating in the transaction are notified".

   The table shows the per-transaction cost of the intra-node broadcast as
   the processor count grows (cheap bus messages), and that network
   notifications stay proportional to participants, not to network size. *)

open Tandem_sim
open Tandem_os
open Tandem_encompass
open Bench_util

let intra_node ~cpus =
  let bank = make_bank ~seed:59 ~cpus ~terminals:4 () in
  queue_debit_credit bank ~per_terminal:5;
  Cluster.run ~until:(Sim_time.minutes 2) bank.cluster;
  record_registry
    ~label:(Printf.sprintf "cpus=%d" cpus)
    (Cluster.metrics bank.cluster);
  let committed = total_completed bank in
  let broadcasts =
    Metrics.read_counter (Cluster.metrics bank.cluster) "tmf.state_broadcast_msgs"
  in
  let per_tx = float_of_int broadcasts /. float_of_int (max 1 committed) in
  let bus_cost_us = per_tx *. float_of_int Hw_config.bus_latency in
  (committed, per_tx, bus_cost_us)

let run () =
  heading "E8 — broadcast to all processors vs participants-only notification";
  claim
    "broadcasting to every processor of a node is cheap on the bus and \
     chosen for simplicity; the same strategy over the network would be too \
     expensive and mostly useless, so only participating nodes are notified";
  let rows =
    List.map
      (fun cpus ->
        let committed, per_tx, bus_cost_us = intra_node ~cpus in
        [
          string_of_int cpus;
          string_of_int committed;
          f1 per_tx;
          Printf.sprintf "%.1f us" bus_cost_us;
        ])
      [ 2; 4; 8; 16 ]
  in
  print_table
    ~columns:[ "cpus in node"; "tx"; "state bcast msgs/tx"; "bus occupancy/tx" ]
    rows;
  (* Network side: an 8-node network where transactions touch 2 nodes. The
     count of TMP state-change messages must track participants (2), not
     network size (8). *)
  let cluster, _spec =
    Workload.build_bank ~seed:61 ~nodes:8 ~cpus:2 ~volumes:[ 1; 2 ]
      ~accounts:100 ~servers:[ `Transfer 2 ] ()
  in
  let tcp =
    Cluster.add_tcp cluster ~node:1 ~name:"$TCP1" ~terminals:1
      ~program:Workload.transfer_program ()
  in
  for i = 0 to 9 do
    Tcp.submit tcp ~terminal:0
      (Workload.transfer_input_between ~from_account:i ~to_account:(50 + i)
         ~amount:1)
  done;
  Cluster.run ~until:(Sim_time.minutes 5) cluster;
  let metrics = Cluster.metrics cluster in
  record_registry ~label:"network" metrics;
  observed
    "8-node network, 2 participating nodes, 10 transactions: %d remote begins \
     and %.1f prepares/tx — the six non-participating nodes received nothing"
    (Metrics.read_counter metrics "tmf.remote_begins")
    (float_of_int (Metrics.read_counter metrics "tmf.prepares_sent")
    /. float_of_int (max 1 (Tcp.completed tcp)))
