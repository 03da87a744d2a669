type report = {
  scenario : string;
  seed : int;
  quick : bool;
  schedule : string;
  faults : int;
  fault_kinds : (string * int) list;
  committed : int;
  restarts : int;
  failures : int;
  events : int;
  verdict : Checker.verdict;
  metrics : Tandem_sim.Json.t;
}

type t = {
  name : string;
  description : string;
  paper : string;
  run : seed:int -> quick:bool -> report;
}

let run t ~seed ~quick = t.run ~seed ~quick

let passed report = report.verdict.Checker.passed

let kind_counts_to_string kinds =
  kinds
  |> List.map (fun (kind, n) -> Printf.sprintf "%s=%d" kind n)
  |> String.concat " "

let fingerprint report =
  String.concat "\n"
    [
      Printf.sprintf "scenario %s seed=%d quick=%b" report.scenario report.seed
        report.quick;
      Printf.sprintf "faults %d [%s]" report.faults
        (kind_counts_to_string report.fault_kinds);
      Printf.sprintf "committed=%d restarts=%d failures=%d events=%d"
        report.committed report.restarts report.failures report.events;
      "schedule:";
      report.schedule;
      "verdict:";
      Checker.verdict_to_string report.verdict;
    ]

let summary_line report =
  Printf.sprintf "%s %-24s seed=%-6d faults=%-3d committed=%-4d restarts=%-3d %d/%d checks"
    (if passed report then "PASS" else "FAIL")
    report.scenario report.seed report.faults report.committed report.restarts
    (List.length
       (List.filter
          (fun (c : Checker.check) -> c.Checker.passed)
          report.verdict.Checker.checks))
    (List.length report.verdict.Checker.checks)
