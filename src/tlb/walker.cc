#include "tlb/walker.hh"

namespace zmt
{

HwWalker::HwWalker(stats::StatGroup *parent)
    : stats::StatGroup("walker", parent),
      walksStarted(this, "walksStarted", "page-table walks begun"),
      walksMerged(this, "walksMerged", "misses merged into active walks"),
      walksSquashed(this, "walksSquashed",
                    "walks whose faulting instruction was squashed")
{}

void
HwWalker::startWalk(Asn asn, Addr va, Addr pte_addr, SeqNum fault_seq)
{
    Addr vpn = pageNum(va);
    for (auto &walk : walks) {
        if (walk.asn == asn && walk.vpn == vpn && !walk.squashed) {
            ++walksMerged;
            if (fault_seq < walk.faultSeq)
                walk.faultSeq = fault_seq;
            return;
        }
    }
    ++walksStarted;
    walks.push_back(Walk{asn, vpn, va, pte_addr, fault_seq});
}

bool
HwWalker::walking(Asn asn, Addr va) const
{
    Addr vpn = pageNum(va);
    for (const auto &walk : walks)
        if (walk.asn == asn && walk.vpn == vpn && !walk.squashed)
            return true;
    return false;
}

unsigned
HwWalker::issue(Cycle now, unsigned ports_free, MemHierarchy &mem)
{
    unsigned used = 0;
    for (auto &walk : walks) {
        if (used >= ports_free)
            break;
        if (walk.issued)
            continue;
        walk.issued = true;
        // Load port latency (3 cycles) plus the hierarchy's answer.
        walk.dataReady = mem.dataAccess(walk.pteAddr, false, now) + 3;
        ++used;
    }
    return used;
}

std::vector<WalkResult>
HwWalker::collectFinished(Cycle now)
{
    std::vector<WalkResult> finished;
    for (auto it = walks.begin(); it != walks.end();) {
        if (it->issued && it->dataReady <= now) {
            finished.push_back(WalkResult{it->asn, it->va, it->pteAddr,
                                          it->faultSeq, it->squashed});
            it = walks.erase(it);
        } else {
            ++it;
        }
    }
    return finished;
}

void
HwWalker::squashWalksAfter(Asn asn, SeqNum first_squashed_seq)
{
    for (auto &walk : walks) {
        if (walk.asn == asn && !walk.squashed &&
            walk.faultSeq >= first_squashed_seq) {
            walk.squashed = true;
            ++walksSquashed;
        }
    }
}

void
HwWalker::relink(Asn asn, Addr va, SeqNum older_seq)
{
    Addr vpn = pageNum(va);
    for (auto &walk : walks) {
        if (walk.asn == asn && walk.vpn == vpn && !walk.squashed &&
            older_seq < walk.faultSeq) {
            walk.faultSeq = older_seq;
        }
    }
}

} // namespace zmt
