package repro.perfbench

import repro.core._

/** Output check for one reported pair, independent of the join's own
  * threshold test: the independent set A that `Usim.approxOnGraph`
  * picks is turned into an explicit partition pair (A's segments plus
  * singletons for uncovered tokens), which must be a well-defined
  * partition of each string and must reach θ under Eq (6), evaluated by
  * `Usim.simForPartitions` (Hungarian over msim). `Usim.exact` is not
  * used: it seeds from `approxOnGraph`, so it would not be independent.
  */
object Certificate {

  def holds(
      k: Knowledge,
      s: String,
      t: String,
      measures: MeasureSet,
      q: Int,
      tParam: Int,
      theta: Double,
  ): Boolean = {
    val g = Usim.graph(k, s, t, measures, q)
    val a = Usim.approxOnGraph(g, tParam)._2.toSeq.sorted
    val ps = partition(a.map(g.sSegs), Tokenizer.tokens(s))
    val pt = partition(a.map(g.tSegs), Tokenizer.tokens(t))
    g.isIndependent(a) &&
      Segments.isPartition(ps, g.sLen) && Segments.isPartition(pt, g.tLen) &&
      Usim.simForPartitions(k, ps, pt, measures, q) >= theta - 1e-9
  }

  private def partition(chosen: Seq[Segment], toks: Vector[String]): Seq[Segment] = {
    val covered = chosen.iterator.flatMap(c => c.start until c.end).toSet
    chosen ++ toks.indices.filterNot(covered).map(i => Segment(i, i + 1, Vector(toks(i))))
  }
}
