open Tandem_sim
open Tandem_encompass

type t = {
  cluster : Cluster.t;
  archives : (Tandem_os.Ids.node_id, Tmf.Rollforward.archive) Hashtbl.t;
}

let create cluster = { cluster; archives = Hashtbl.create 4 }

let metrics t = Cluster.metrics t.cluster

let net t = Cluster.net t.cluster

let volume t ~node ~name = Cluster.volume t.cluster ~node ~volume:name

let count t fault =
  Metrics.incr (Metrics.counter (metrics t) "chaos.faults_injected");
  Metrics.incr
    (Metrics.counter_with (metrics t) "chaos.faults_injected"
       ~labels:[ ("kind", Fault.kind fault) ])

let apply t fault =
  count t fault;
  match fault with
  | Fault.Cpu_crash { node; cpu } -> Cluster.fail_cpu t.cluster ~node cpu
  | Fault.Cpu_restore { node; cpu } -> Cluster.restore_cpu t.cluster ~node cpu
  | Fault.Node_crash { node } ->
      (* The archive models the operator's periodic archive copy: taken from
         the pre-crash image, it is what ROLLFORWARD replays forward using
         the surviving audit trails. *)
      Hashtbl.replace t.archives node (Cluster.take_archive t.cluster ~node);
      Cluster.total_node_failure t.cluster ~node
  | Fault.Node_recover { node } -> (
      match Hashtbl.find_opt t.archives node with
      | None ->
          invalid_arg
            (Printf.sprintf "Injector.apply: node %d was never crashed" node)
      | Some archive ->
          ignore (Cluster.rollforward_node t.cluster ~node archive);
          Metrics.incr (Metrics.counter (metrics t) "chaos.node_recoveries"))
  | Fault.Drive_failure { node; volume = name; drive } ->
      Tandem_disk.Volume.fail_drive (volume t ~node ~name) drive
  | Fault.Drive_revive { node; volume = name; drive; blocks } ->
      Tandem_disk.Volume.revive_drive (volume t ~node ~name) drive ~blocks
  | Fault.Controller_failure { node; volume = name; controller } ->
      Tandem_disk.Volume.fail_controller (volume t ~node ~name) controller
  | Fault.Controller_restore { node; volume = name; controller } ->
      Tandem_disk.Volume.restore_controller (volume t ~node ~name) controller
  | Fault.Bus_failure { node; bus } ->
      Tandem_os.Node.fail_bus (Tandem_os.Net.node (net t) node) bus
  | Fault.Bus_restore { node; bus } ->
      Tandem_os.Node.restore_bus (Tandem_os.Net.node (net t) node) bus
  | Fault.Link_failure { a; b } -> Tandem_os.Net.fail_link (net t) a b
  | Fault.Link_restore { a; b } -> Tandem_os.Net.restore_link (net t) a b
  | Fault.Partition { group_a; group_b } ->
      Tandem_os.Net.partition (net t) group_a group_b
  | Fault.Heal_partition ->
      Tandem_os.Net.heal_partition (net t);
      Metrics.incr (Metrics.counter (metrics t) "chaos.partitions_healed")
  | Fault.Link_degrade { a; b; factor } ->
      Tandem_os.Net.degrade_link (net t) a b ~factor
  | Fault.Link_repair { a; b } -> Tandem_os.Net.repair_link_latency (net t) a b
