type t = Active | Ending | Ended | Aborting | Aborted

let legal_transition from into =
  match (from, into) with
  | Active, Ending
  | Active, Aborting
  | Ending, Ended
  | Ending, Aborting
  | Aborting, Aborted -> true
  | (Active | Ending | Ended | Aborting | Aborted), _ -> false

let is_terminal = function
  | Ended | Aborted -> true
  | Active | Ending | Aborting -> false

let to_string = function
  | Active -> "active"
  | Ending -> "ending"
  | Ended -> "ended"
  | Aborting -> "aborting"
  | Aborted -> "aborted"

let all = [ Active; Ending; Ended; Aborting; Aborted ]
