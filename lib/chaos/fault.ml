type mirror = [ `M0 | `M1 ]

type controller = [ `A | `B ]

type bus = [ `X | `Y ]

type t =
  | Cpu_crash of { node : Tandem_os.Ids.node_id; cpu : Tandem_os.Ids.cpu_id }
  | Cpu_restore of { node : Tandem_os.Ids.node_id; cpu : Tandem_os.Ids.cpu_id }
  | Node_crash of { node : Tandem_os.Ids.node_id }
  | Node_recover of { node : Tandem_os.Ids.node_id }
  | Drive_failure of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      drive : mirror;
    }
  | Drive_revive of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      drive : mirror;
      blocks : int;
    }
  | Controller_failure of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      controller : controller;
    }
  | Controller_restore of {
      node : Tandem_os.Ids.node_id;
      volume : string;
      controller : controller;
    }
  | Bus_failure of { node : Tandem_os.Ids.node_id; bus : bus }
  | Bus_restore of { node : Tandem_os.Ids.node_id; bus : bus }
  | Link_failure of { a : Tandem_os.Ids.node_id; b : Tandem_os.Ids.node_id }
  | Link_restore of { a : Tandem_os.Ids.node_id; b : Tandem_os.Ids.node_id }
  | Partition of {
      group_a : Tandem_os.Ids.node_id list;
      group_b : Tandem_os.Ids.node_id list;
    }
  | Heal_partition
  | Link_degrade of {
      a : Tandem_os.Ids.node_id;
      b : Tandem_os.Ids.node_id;
      factor : int;
    }
  | Link_repair of { a : Tandem_os.Ids.node_id; b : Tandem_os.Ids.node_id }

let kind = function
  | Cpu_crash _ -> "cpu_crash"
  | Cpu_restore _ -> "cpu_restore"
  | Node_crash _ -> "node_crash"
  | Node_recover _ -> "node_recover"
  | Drive_failure _ -> "drive_failure"
  | Drive_revive _ -> "drive_revive"
  | Controller_failure _ -> "controller_failure"
  | Controller_restore _ -> "controller_restore"
  | Bus_failure _ -> "bus_failure"
  | Bus_restore _ -> "bus_restore"
  | Link_failure _ -> "link_failure"
  | Link_restore _ -> "link_restore"
  | Partition _ -> "partition"
  | Heal_partition -> "heal_partition"
  | Link_degrade _ -> "link_degrade"
  | Link_repair _ -> "link_repair"

let mirror_to_string = function `M0 -> "M0" | `M1 -> "M1"

let controller_to_string = function `A -> "A" | `B -> "B"

let bus_to_string = function `X -> "X" | `Y -> "Y"

let group_to_string group = String.concat "," (List.map string_of_int group)

let to_string = function
  | Cpu_crash { node; cpu } -> Printf.sprintf "cpu_crash node=%d cpu=%d" node cpu
  | Cpu_restore { node; cpu } ->
      Printf.sprintf "cpu_restore node=%d cpu=%d" node cpu
  | Node_crash { node } -> Printf.sprintf "node_crash node=%d" node
  | Node_recover { node } -> Printf.sprintf "node_recover node=%d" node
  | Drive_failure { node; volume; drive } ->
      Printf.sprintf "drive_failure node=%d volume=%s drive=%s" node volume
        (mirror_to_string drive)
  | Drive_revive { node; volume; drive; blocks } ->
      Printf.sprintf "drive_revive node=%d volume=%s drive=%s blocks=%d" node
        volume (mirror_to_string drive) blocks
  | Controller_failure { node; volume; controller } ->
      Printf.sprintf "controller_failure node=%d volume=%s controller=%s" node
        volume
        (controller_to_string controller)
  | Controller_restore { node; volume; controller } ->
      Printf.sprintf "controller_restore node=%d volume=%s controller=%s" node
        volume
        (controller_to_string controller)
  | Bus_failure { node; bus } ->
      Printf.sprintf "bus_failure node=%d bus=%s" node (bus_to_string bus)
  | Bus_restore { node; bus } ->
      Printf.sprintf "bus_restore node=%d bus=%s" node (bus_to_string bus)
  | Link_failure { a; b } -> Printf.sprintf "link_failure %d-%d" a b
  | Link_restore { a; b } -> Printf.sprintf "link_restore %d-%d" a b
  | Partition { group_a; group_b } ->
      Printf.sprintf "partition {%s}|{%s}" (group_to_string group_a)
        (group_to_string group_b)
  | Heal_partition -> "heal_partition"
  | Link_degrade { a; b; factor } ->
      Printf.sprintf "link_degrade %d-%d x%d" a b factor
  | Link_repair { a; b } -> Printf.sprintf "link_repair %d-%d" a b
