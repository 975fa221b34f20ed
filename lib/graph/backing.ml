type owner = { mutable used : int }

let owner n = { used = n }

type growth = { g_owner : owner; size : int; added : int; in_place : bool; cap : int }

let plan g_owner ~size ~cap ~added =
  let in_place = added = 0 || (g_owner.used = size && size + added <= cap) in
  { g_owner; size; added; in_place; cap = max (size + added) (2 * size) }

let put g a ~fill extra =
  if g.in_place then begin
    Array.blit extra 0 a g.size g.added;
    a
  end
  else if g.size = 0 then extra
  else begin
    let b = Array.make g.cap fill in
    Array.blit a 0 b 0 g.size;
    Array.blit extra 0 b g.size g.added;
    b
  end

let commit g =
  if g.in_place then begin
    if g.added > 0 then g.g_owner.used <- g.size + g.added;
    g.g_owner
  end
  else owner (g.size + g.added)
