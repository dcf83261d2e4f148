type t = { declared : Graph.t; observed : (string * string * int) list }

let create ~declared ~observed = { declared; observed }
let observed t = t.observed

type violation = { v_from : string; v_to : string; v_count : int }

let violations t =
  observed t
  |> List.filter_map (fun (from, to_, count) ->
         if Graph.mem_edge t.declared ~from ~to_ then None
         else Some { v_from = from; v_to = to_; v_count = count })

let unexercised t =
  Graph.edges t.declared
  |> List.filter_map (fun (from, to_, ks) ->
         let callable =
           List.exists
             (fun k -> k = Dep_kind.Component || k = Dep_kind.Explicit_call)
             ks
         in
         let called =
           List.exists (fun (f, t', _) -> f = from && t' = to_) t.observed
         in
         if callable && not called then Some (from, to_) else None)

let conforms t = violations t = []

let report ppf t =
  Format.fprintf ppf "conformance: %d distinct call edges observed@."
    (List.length t.observed);
  match violations t with
  | [] ->
      Format.fprintf ppf "  all observed calls covered by declared dependencies@."
  | vs ->
      List.iter
        (fun v ->
          Format.fprintf ppf "  VIOLATION: %s -> %s (%d calls) undeclared@."
            v.v_from v.v_to v.v_count)
        vs
