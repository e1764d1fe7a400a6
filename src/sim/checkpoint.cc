#include "sim/checkpoint.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/hash.hh"
#include "core/core.hh"
#include "sim/jsonfields.hh"

namespace zmt
{

// The field lists of the checkpoint record. They live in namespace zmt,
// not an anonymous one, so that argument-dependent lookup finds them;
// WorkloadParams' list is in wload/workload.hh.

template <RecordOf<ArchState> R, typename V>
void
visitFields(R &a, V &&v)
{
    v("pc", a.pc);
    v("pal_mode", a.palMode);
    v("int_regs", a.intRegs);
    v("fp_regs", a.fpRegs);
    v("priv_regs", a.privRegs);
}

template <RecordOf<ProcessRestore> R, typename V>
void
visitFields(R &r, V &&v)
{
    v("asn", r.asn);
    v("ptbr", r.ptbr);
    v("va_limit", r.vaLimit);
    v("mapped_pages", r.mappedPages);
    v("entry", r.entry);
    v("resume", r.resume);
}

template <RecordOf<CheckpointProc> R, typename V>
void
visitFields(R &p, V &&v)
{
    v("wload", p.wload);
    v("restore", p.restore);
    v("ffwd", p.ffwdInsts);
    v("shash", p.storeHash);
    v("halted", p.halted);
}

template <RecordOf<CheckpointPage> R, typename V>
void
visitFields(R &p, V &&v)
{
    v("ppn", p.ppn);
    v("bytes", p.bytes);
}

template <RecordOf<WarmPage> R, typename V>
void
visitFields(R &p, V &&v)
{
    v("asn", p.asn);
    v("vpn", p.vpn);
}

template <RecordOf<WarmLine> R, typename V>
void
visitFields(R &l, V &&v)
{
    v("grain", l.grain);
    v("data", l.data);
    v("fetch", l.fetch);
    v("dirty", l.dirty);
}

template <RecordOf<CheckpointData> R, typename V>
void
visitFields(R &d, V &&v)
{
    v("ffwd", d.ffwdTotal);
    v("frames", d.framesNext);
    v("procs", d.procs);
    v("pages", d.pages);
    v("warm_pages", d.warmPages);
    v("warm_lines", d.warmLines);
}

const char CheckpointHeader[] = "zmt-checkpoint-v2";

bool
saveCheckpoint(const CheckpointData &data, const std::string &path,
               std::string *error)
{
    std::ostringstream record;
    writeJsonObject(record, data);
    std::string text = std::string(CheckpointHeader) + '\n' +
                       sealRecord(record.str()) + '\n';

    // Whole-file temp + rename: a reader never observes a partial
    // checkpoint, and a crash mid-write leaves the old file intact.
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error)
                *error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        out << text;
        out.flush();
        if (!out) {
            if (error)
                *error = "write to '" + tmp + "' failed";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path + "'";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
loadCheckpoint(const std::string &path, CheckpointData *data,
               std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    auto failRecord = [&](const std::string &why) {
        return fail("'" + path + "' line 2: " + why);
    };

    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string content = buffer.str();

    const std::string header = std::string(CheckpointHeader) + '\n';
    if (content.compare(0, header.size(), header) != 0)
        return fail("'" + path + "' is not a " + CheckpointHeader +
                    " file");
    size_t end = content.find('\n', header.size());
    if (end == std::string::npos)
        return failRecord("no complete record (truncated file)");
    if (end + 1 != content.size())
        return fail("'" + path + "' line 3: data after the record");

    std::string payload, why;
    if (!openRecord(content.substr(header.size(), end - header.size()),
                    &payload, &why))
        return failRecord(why);
    CheckpointData d;
    if (!parseJsonObject(payload, &d))
        return failRecord("record does not decode as a checkpoint");
    for (const CheckpointPage &page : d.pages)
        if (page.bytes.size() > PageBytes)
            return failRecord("page " + std::to_string(page.ppn) +
                              " is longer than a page");
    if (d.procs.empty())
        return failRecord("checkpoint has no processes");

    *data = std::move(d);
    return true;
}

void
applyWarmState(SmtCore &core, const std::vector<WarmPage> &pages,
               const std::vector<WarmLine> &lines)
{
    if (pages.empty() && lines.empty())
        return;
    Tlb &tlb = core.dtlb();
    MemHierarchy &mem = core.memory();
    for (const WarmPage &page : pages)
        tlb.warmInsert(page.asn, page.vpn << PageBits);
    for (const WarmLine &line : lines) {
        Addr pa = line.grain * WarmGrainBytes;
        if (line.data) {
            mem.dcache().warmInstall(pa, line.dirty);
            mem.l2cache().warmInstall(pa, false);
        }
        if (line.fetch) {
            mem.icache().warmInstall(pa, false);
            mem.l2cache().warmInstall(pa, false);
        }
    }
    mem.settleTiming();
}

} // namespace zmt
