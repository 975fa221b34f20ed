module Pool = Graql_parallel.Domain_pool
module Rng = Graql_util.Rng

type kind =
  | Fail
  | Slow of int (* milliseconds *)

type rule = {
  on_label : string option;
  on_index : int option;
  kind : kind;
  first_attempts : int;
  prob : float;
}

type t = { seed : int; rules : rule list }

let rule ?label ?index ?(attempts = 1) ?(prob = 1.0) kind =
  {
    on_label = label;
    on_index = index;
    kind;
    first_attempts = (if attempts < 0 then max_int else attempts);
    prob;
  }

let make ?(seed = 0) rules = { seed; rules }

let fail_once ?(seed = 0) () = { seed; rules = [ rule ~attempts:1 Fail ] }

let random ?(seed = 0) ?(prob = 0.25) () =
  { seed; rules = [ rule ~attempts:1 ~prob Fail ] }

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* The per-site coin is a pure function of (seed, label, index): whether a
   site is faulty never depends on scheduling order, so runs are
   reproducible at any domain count. *)
let site_coin t ~label ~index =
  let rng = Rng.make (Hashtbl.hash (t.seed, label, index)) in
  Rng.float rng 1.0

let matching_rule t ~label ~index ~attempt =
  List.find_opt
    (fun r ->
      attempt <= r.first_attempts
      && (match r.on_label with
         | Some l -> contains ~needle:(String.lowercase_ascii l)
                       (String.lowercase_ascii label)
         | None -> true)
      && (match r.on_index with Some i -> i = index | None -> true)
      && (r.prob >= 1.0 || site_coin t ~label ~index < r.prob))
    t.rules

let site_name ~label ~index =
  Printf.sprintf "%s/shard%d" (if label = "" then "anon" else label) index

let hook t ~label ~index ~attempt =
  match matching_rule t ~label ~index ~attempt with
  | None -> ()
  | Some { kind = Fail; _ } -> raise (Pool.Transient (site_name ~label ~index))
  | Some { kind = Slow ms; _ } ->
      if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0)

(* ------------------------------------------------------------------ *)
(* Environment-driven plans (CI)                                       *)

let env_seed_var = "GRAQL_FAULT_SEED"
let env_prob_var = "GRAQL_FAULT_PROB"

let of_env () =
  match Sys.getenv_opt env_seed_var with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt s with
      | None -> None
      | Some seed ->
          let prob =
            match Option.bind (Sys.getenv_opt env_prob_var) float_of_string_opt with
            | Some p when p > 0.0 && p <= 1.0 -> p
            | _ -> 0.25
          in
          Some (random ~seed ~prob ()))
