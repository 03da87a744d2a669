type node_id = int

type cpu_id = int

type pid = { node : node_id; cpu : cpu_id; serial : int }

let pp_pid formatter { node; cpu; serial } =
  Format.fprintf formatter "%d:%d.%d" node cpu serial

let equal_pid a b = a.node = b.node && a.cpu = b.cpu && a.serial = b.serial

module Pid_tbl = Tandem_sim.Tbl.Make (struct
  type t = pid

  let equal = equal_pid
end)

let max_cpus_per_node = 16
