type t = No_deadline | At of { at : float; budget_ms : float }

exception Expired of { budget_ms : float }

let none = No_deadline

let after_ms budget_ms = At { at = Unix.gettimeofday () +. (budget_ms /. 1000.0); budget_ms }

let budget_ms = function No_deadline -> None | At { budget_ms; _ } -> Some budget_ms

let expired = function
  | No_deadline -> false
  | At { at; _ } -> Unix.gettimeofday () > at

let remaining_ms = function
  | No_deadline -> None
  | At { at; _ } -> Some (Float.max 0.0 ((at -. Unix.gettimeofday ()) *. 1000.0))

let cap t bound =
  match (remaining_ms t, bound) with
  | None, b -> b
  | r, None -> r
  | Some r, Some b -> Some (Float.min r b)

let check = function
  | No_deadline -> ()
  | At { at; budget_ms } -> if Unix.gettimeofday () > at then raise (Expired { budget_ms })
