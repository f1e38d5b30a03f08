package repro.join

import repro.core.Segment

/** GetMinPartitionSize (Algorithm 2, Lines 6-12): a lower bound on the
  * number of segments in any well-defined partition of S.
  *
  * Finding the true minimum is a minimum exact cover (NP-hard [23]);
  * the greedy set cover's size divided by its (ln n + 1) approximation
  * factor [28] lower-bounds it, where n is the token count of the
  * largest well-defined segment.
  */
object MinPartition {

  def greedyCover(segments: IndexedSeq[Segment], tokenCount: Int): Vector[Segment] = {
    var uncovered = (0 until tokenCount).toSet
    val picked = Vector.newBuilder[Segment]
    while (uncovered.nonEmpty) {
      val best = segments.maxBy(s => ((s.start until s.end).count(uncovered), -s.start))
      val gain = (best.start until best.end).count(uncovered)
      require(gain > 0, "no segment covers remaining tokens — singletons must exist")
      uncovered = uncovered -- (best.start until best.end)
      picked += best
    }
    picked.result()
  }

  /** m = ⌈|A| / (ln n + 1)⌉ where A is the greedy cover. */
  def size(segments: IndexedSeq[Segment], tokenCount: Int): Int = {
    if (tokenCount == 0) return 0
    val cover = greedyCover(segments, tokenCount)
    val n = segments.iterator.map(_.length).max
    math.ceil(cover.size / (math.log(n) + 1)).toInt
  }
}
