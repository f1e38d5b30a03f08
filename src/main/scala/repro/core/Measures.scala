package repro.core

/** The three base similarity measures of §2.1 and their per-pair
  * maximum msim (Eq 4), evaluated on token spans (segments).
  */
object Measures {

  /** Default gram length used throughout the paper's examples. */
  val DefaultQ = 2

  /** Gram-based Jaccard coefficient (Eq 1) on the texts of two spans. */
  def jaccard(a: String, b: String, q: Int = DefaultQ): Double =
    jaccard(Tokenizer.qgrams(a, q), Tokenizer.qgrams(b, q))

  /** Jaccard coefficient of two gram sets; 0 when they share no gram
    * (two empty sets included). Probes the smaller set into the larger.
    */
  def jaccard(ga: Set[String], gb: Set[String]): Double = {
    val (small, large) = if (ga.size <= gb.size) (ga, gb) else (gb, ga)
    val inter = small.count(large.contains)
    if (inter == 0) 0.0 else inter.toDouble / (ga.size + gb.size - inter)
  }

  /** Jaccard coefficient of two gram sets given as sorted arrays of
    * distinct gram ids from one table: the same counts, hence the same
    * double, as the `Set` overload.
    */
  def jaccard(ga: Array[Int], gb: Array[Int]): Double = {
    var i = 0
    var j = 0
    var inter = 0
    while (i < ga.length && j < gb.length) {
      val d = ga(i) - gb(j)
      if (d == 0) { inter += 1; i += 1; j += 1 }
      else if (d < 0) i += 1
      else j += 1
    }
    if (inter == 0) 0.0 else inter.toDouble / (ga.length + gb.length - inter)
  }

  /** Synonym similarity (Eq 2): C(R) if a rule maps one span to the
    * other (in either direction — a rule makes its sides equivalent),
    * else 0. When several rules apply, the closest wins.
    */
  def synonym(k: Knowledge, a: Vector[String], b: Vector[String]): Double = {
    def dir(l: Vector[String], r: Vector[String]): Double =
      k.byLhs.getOrElse(l, Nil).iterator
        .map(k.rule)
        .filter(_.rhs == r)
        .map(_.c)
        .maxOption
        .getOrElse(0.0)
    math.max(dir(a, b), dir(b, a))
  }

  /** Eq (2) over rule-side codes (`SegmentLookups.ruleSides`): the largest
    * C(R) of a code of `codes` whose partner `code ^ 1` is in `others` (one
    * segment's codes, or a whole string's), else 0, as the span overload.
    */
  private[core] def synonym(k: Knowledge, codes: Array[Int], others: Array[Int]): Double = {
    var best = 0.0
    var x = 0
    while (x < codes.length) {
      val c = k.rule(codes(x) >>> 1).c
      if (c > best) {
        val partner = codes(x) ^ 1
        var y = 0
        while (y < others.length && others(y) != partner) y += 1
        if (y < others.length) best = c
      }
      x += 1
    }
    best
  }

  /** Eq (3) over two entities' root paths (`SegmentLookups.paths`): |LCA|
    * is their common prefix's length, so this is `Taxonomy.sim`'s double.
    */
  private[core] def taxonomy(a: Array[Int], b: Array[Int]): Double = {
    val n = math.min(a.length, b.length)
    var lca = 0
    while (lca < n && a(lca) == b(lca)) lca += 1
    lca.toDouble / math.max(a.length, b.length)
  }

  /** Taxonomy similarity (Eq 3) if both spans name taxonomy entities, else 0. */
  def taxonomy(k: Knowledge, a: Vector[String], b: Vector[String]): Double =
    (k.taxonomy.node(a), k.taxonomy.node(b)) match {
      case (Some(na), Some(nb)) => k.taxonomy.sim(na, nb)
      case _                    => 0.0
    }

  /** msim (Eq 4): the best applicable measure on a span pair, restricted
    * to the enabled `measures`. Jaccard applies to any pair of spans;
    * synonym/taxonomy only where the knowledge base matches.
    */
  def msim(
      k: Knowledge,
      a: Vector[String],
      b: Vector[String],
      measures: MeasureSet = MeasureSet.TJS,
      q: Int = DefaultQ,
  ): Double = {
    var best = 0.0
    if (measures.j) best = math.max(best, jaccard(Tokenizer.text(a), Tokenizer.text(b), q))
    if (measures.s) best = math.max(best, synonym(k, a, b))
    if (measures.t) best = math.max(best, taxonomy(k, a, b))
    best
  }
}
